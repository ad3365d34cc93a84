// Command perfbench is the repository benchmark. It drives the
// simulator from outside, through its public packages, on one of three
// workloads, checks every output it produces, and prints one JSON
// result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 it carries the per-layer metrics of
// a separate traced run: span and counter aggregates, a CPU profile
// folded by module, and timed calls into each layer on the inputs the
// workload itself produced. BENCHMARK.json at the repository root
// lists the workloads and metrics; README.md in this directory says
// which layer metric should move which end-to-end metric.
//
// Run it from the repository root (it reads results_full.txt there and
// keeps its scratch files under .bench_build/). run.sh builds and runs
// it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"specctrl/internal/obs"
)

// workers is the grid pool width and the served-mix client count. It
// is fixed, not taken from the host, so a run does the same work on
// every machine.
const workers = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed      uint64
	seconds   float64
	trace     bool
	committed uint64 // batch run length; 0, as the command line leaves it, is the published scale
	root      string // repository root (working directory)
	scratch   string // private scratch directory, removed at exit
	info      map[string]any
}

// endToEnd names the metrics of an untraced run, on every workload.
var endToEnd = []string{"wall_s", "cpu_s", "peak_rss_mb", "setup_s", "job_p50_ms", "job_p95_ms", "jobs_per_s"}

// perLayer names the metrics of a traced run, on every workload; a
// layer that does no work on a workload reports 0 there.
var perLayer = []string{
	"runner.cells", "runner.queue_wait_s", "runner.cell_max_s",
	"replay.arch_record_n", "replay.arch_record_s", "replay.events_record_n", "replay.events_record_s",
	"replay.arch_replay_n", "replay.arch_replay_s", "replay.events_replay_n", "replay.events_replay_s",
	"replay.lookup_s", "replay.trace_hit_ratio", "replay.arch_hit_ratio",
	"replay.arch_replay_ns_per_branch", "replay.events_replay_ns_per_event",
	"bpred.ns_per_branch.gshare", "bpred.ns_per_branch.mcfarling", "bpred.ns_per_branch.sag",
	"conf.ns_per_branch.jrs", "conf.ns_per_branch.satcnt", "conf.ns_per_branch.cir",
	"conf.ns_per_branch.pattern", "conf.ns_per_branch.auc_set",
	"emu.ns_per_instr",
	"pipeline.ns_per_cycle", "pipeline.ns_per_cycle.est", "pipeline.ns_per_cycle.gate",
	"gating.pair_over_run",
	"serve.submit_ms", "serve.queue_wait_ms", "serve.exec_ms", "serve.result_ms", "serve.cache_hit_ratio",
	"serve.store_lookup_us", "serve.store_put_us",
	"cpu.emu", "cpu.mem", "cpu.cache", "cpu.bpred", "cpu.conf", "cpu.pipeline", "cpu.replay",
	"cpu.runner", "cpu.serve", "cpu.gc", "cpu.other",
	"span.overhead_ratio",
}

// checkMetricSet fails unless m holds exactly the named metrics.
func checkMetricSet(m map[string]metric, names []string) error {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			return fmt.Errorf("metric %s missing", n)
		}
	}
	if len(m) != len(names) {
		return fmt.Errorf("%d metrics reported, %d defined", len(m), len(names))
	}
	return nil
}

// workloadFunc runs one workload and returns its result.
type workloadFunc func(rc *runConfig) (*result, error)

var workloadsByName = map[string]workloadFunc{
	"estimator-sweep":     runBatch(estimatorSweep),
	"speculation-control": runBatch(speculationControl),
	"served-mix":          runServed,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: estimator-sweep, speculation-control or served-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measuring time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloadsByName[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, resultsFile)); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	scratch := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	rc := &runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: root, scratch: scratch, info: hostContext(root, *name, *seed),
	}
	res, err := wl(rc)
	if err != nil {
		return err
	}
	want := endToEnd
	if rc.trace {
		want = perLayer
	}
	if err := checkMetricSet(res.Metrics, want); err != nil {
		return err
	}
	ctxLine, err := json.Marshal(map[string]any{"context": rc.info})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", ctxLine, line)
	return err
}

// hostContext records what a reader needs to compare runs across
// machines. None of it is an end-to-end metric.
func hostContext(root, workload string, seed uint64) map[string]any {
	info := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commitOf(root),
	}
	info["host.calib_ms"] = calibrate()
	return info
}

// commitOf names the code under test: the VCS revision the build
// recorded when there is one, else a digest of the Go sources (a
// benchmark checkout need not be a git repository).
func commitOf(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	d, err := sourceDigest(root)
	if err != nil {
		return "unknown"
	}
	return "src:" + d
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed integer loop (median of five) so absolute
// times can be normalized across hosts.
func calibrate() float64 {
	var ms []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ms)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// passMetrics assembles the end-to-end metrics of an untraced run from
// its passes' wall and CPU times, its job latencies and its set-ups.
func passMetrics(rc *runConfig, walls, cpus, jobMs, setupS []float64, rss float64, job string) (map[string]metric, error) {
	p50, err := percentileOf(jobMs, 0.5)
	if err != nil {
		return nil, err
	}
	p95, err := percentileOf(jobMs, 0.95)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, w := range walls {
		total += w
	}
	rc.info["passes"] = len(walls)
	rc.info["job"] = job
	rc.info["job_p50"] = p50
	rc.info["job_p95"] = p95
	return map[string]metric{
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"peak_rss_mb": {rss, "MB"},
		"setup_s":     {median(setupS), "s"},
		"job_p50_ms":  {p50.Value, "ms"},
		"job_p95_ms":  {p95.Value, "ms"},
		"jobs_per_s":  {float64(len(jobMs)) / total, "1/s"},
	}, nil
}

// layerMetrics adds a traced run's span and counter aggregates, its CPU
// profile folded by module, and the tracing overhead (traced ÷
// untraced pass time).
func layerMetrics(m map[string]metric, rc *runConfig, col *spanCollector, reg *obs.Registry, profPath string, overhead float64) error {
	if err := spanMetrics(m, col.snapshot(), reg); err != nil {
		return err
	}
	shares, err := foldProfile(profPath, rc.scratch)
	if err != nil {
		return err
	}
	for _, row := range cpuRows {
		m["cpu."+row] = metric{shares[row], "share"}
	}
	m["span.overhead_ratio"] = metric{overhead, "ratio"}
	return nil
}

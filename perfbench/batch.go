package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/isa"
	"specctrl/internal/obs"
	"specctrl/internal/replay"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// estimatorSweep is the 13 experiments whose work is estimator
// evaluation over recorded branch streams (trace record, arch and
// event replay, estimator tables), in registry order.
var estimatorSweep = []string{
	"table2", "table2-detail", "fig3", "fig4", "fig5", "table3", "misest",
	"cir", "auc", "patterns", "jrsmcf", "tuned", "abl-width",
}

// speculationControl is the gated, throttled and boosted pipelines,
// which always simulate directly: the replay tiers do no work here.
var speculationControl = []string{"abl-gating", "frontier"}

// batchPassSeconds is the share of --seconds one batch pass stands
// for: a run measures two passes at the 10 s run_seconds. A pass takes
// 8-20 s at the published scale on a shared 2-vCPU Xeon, so a run
// outlasts its --seconds. Passes within one run differ about as much as
// runs do (14.5-17.2 s for speculation-control in one run), so a run
// reports the median of two: over ten seeds on speculation-control, one
// pass per run spread wall_s 0.16 and job_p95_ms 0.20 (interquartile
// range over median), two passes 0.02 and 0.02 on a steady host (0.10
// and 0.12 while the host slowly sped up).
const batchPassSeconds = 5

// passCount is how many whole passes fill a run's measuring time. A run
// measures a fixed amount of work, not whatever fits in the time: the
// served store keeps every finished job, so a time-bound window would
// charge a faster program more memory.
func passCount(seconds, perPass float64) int {
	return max(1, int(math.Round(seconds/perPass)))
}

// batchSetups is how many times a batch run repeats its set-up (a few
// milliseconds) to report a median.
const batchSetups = 41

// cellTimer is a pass-through experiments.CellCache: it caches nothing
// and records how long each grid cell took, the batch workloads' job
// latency.
type cellTimer struct {
	mu sync.Mutex
	ms []float64
}

func (t *cellTimer) GetOrCompute(ctx context.Context, _ string, _ runner.Spec,
	compute func(context.Context) (experiments.CellResult, error)) (experiments.CellResult, error) {
	start := time.Now()
	c, err := compute(ctx)
	d := time.Since(start)
	t.mu.Lock()
	t.ms = append(t.ms, float64(d.Nanoseconds())/1e6)
	t.mu.Unlock()
	return c, err
}

// batchSetup is what a batch run prepares before its first experiment.
type batchSetup struct {
	check checker
	progs map[string]*isa.Program // the suite, as every fresh process builds it
	order []string
}

// buildSuite builds the suite's programs at the experiments' iteration
// count, returning them by name with the names in Table 1 order.
func buildSuite() (map[string]*isa.Program, []string) {
	iters := experiments.DefaultParams().BuildIters
	progs := make(map[string]*isa.Program)
	var order []string
	for _, w := range workload.Suite() {
		progs[w.Name] = w.Build(iters)
		order = append(order, w.Name)
	}
	return progs, order
}

// batchPass is one run of a batch workload's experiment set.
type batchPass struct {
	wall, cpu float64
	cellMs    []float64
	outs      []output
	runErrs   []error
	params    experiments.Params // with the pass's own trace caches
}

// runPass runs the experiments once with cold trace caches. tracer and
// reg, when non-nil, are passed through Params.
func runPass(names []string, base experiments.Params, reg *obs.Registry, tr *spanCollector) *batchPass {
	p := base
	p.TraceCache = replay.NewCache(0, reg)
	p.ArchCache = replay.NewArchCache(0, reg)
	timer := &cellTimer{}
	p.Cache = timer
	if reg != nil {
		p.Obs = reg
	}
	if tr != nil {
		p.Tracer = newTracer(tr)
	}
	bp := &batchPass{params: p}
	cpu0, start := cpuSeconds(), time.Now()
	for _, name := range names {
		r, err := experiments.Run(name, p)
		text := ""
		if err == nil {
			text = normalize(r.Render())
		}
		bp.outs = append(bp.outs, output{name: name, text: text})
		bp.runErrs = append(bp.runErrs, err)
	}
	bp.wall = time.Since(start).Seconds()
	bp.cpu = cpuSeconds() - cpu0
	bp.cellMs = timer.ms
	return bp
}

// checkPass compares the pass's outputs with the expected ones and
// returns the failure count and whether the self-test held.
func checkPass(c checker, bp *batchPass) (failed int, selfOK bool) {
	errs := c.check(bp.outs)
	for i, err := range bp.runErrs {
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", bp.outs[i].name, err)
		}
	}
	return failures(errs), selfTest(c, bp.outs, errs)
}

// batchParams is the parameter set of a batch workload.
func batchParams(committed, seed uint64) experiments.Params {
	p := experiments.DefaultParams()
	p.MaxCommitted = committed
	p.Jobs = workers
	p.BaseSeed = seed
	return p
}

// runBatch returns the workload function for an experiment set.
func runBatch(names []string) workloadFunc {
	return func(rc *runConfig) (*result, error) {
		committed := rc.committed
		if committed == 0 {
			committed = publishedCommitted
		}
		c, err := batchChecker(rc.root, committed)
		if err != nil {
			return nil, err
		}
		// The set-up every fresh process pays before its first
		// simulation is the suite build. The experiments make the same
		// builds through their own process-wide program cache, which
		// the benchmark cannot fill, so the first pass pays them again
		// inside wall_s; the layer probes run on these programs.
		setup := &batchSetup{check: c}
		var setupS []float64
		for i := 0; i < batchSetups; i++ {
			start := time.Now()
			setup.progs, setup.order = buildSuite()
			setupS = append(setupS, time.Since(start).Seconds())
		}
		base := batchParams(committed, rc.seed)
		rc.info["committed"] = committed
		rc.info["workers"] = workers
		if rc.trace {
			return tracedBatch(rc, names, base, setup)
		}

		var passes []*batchPass
		for i := passCount(rc.seconds, batchPassSeconds); i > 0; i-- {
			// Each pass starts from a collected heap without the previous
			// pass's trace caches, so peak RSS is one pass's.
			runtime.GC()
			bp := runPass(names, base, nil, nil)
			bp.params = experiments.Params{}
			passes = append(passes, bp)
		}
		rss := peakRSSMB()
		var walls, cpus, cellMs []float64
		failed, selfOK := 0, true
		for _, bp := range passes {
			walls = append(walls, bp.wall)
			cpus = append(cpus, bp.cpu)
			cellMs = append(cellMs, bp.cellMs...)
			f, ok := checkPass(setup.check, bp)
			failed += f
			selfOK = selfOK && ok
		}
		m, err := passMetrics(rc, walls, cpus, cellMs, setupS, rss, "grid cell")
		if err != nil {
			return nil, err
		}
		rc.info["output_sha256"] = digest(passes[0].outs)
		rc.info["self_test"] = selfOK
		return &result{
			Correct: failed == 0 && selfOK, Attempted: len(names) * len(passes), Failed: failed, Metrics: m,
		}, nil
	}
}

// tracedBatch measures the per-layer metrics: an untraced pass for the
// overhead base, then a traced pass under the CPU profiler, then the
// layer probes on the traced pass's own trace caches.
func tracedBatch(rc *runConfig, names []string, base experiments.Params, setup *batchSetup) (*result, error) {
	runtime.GC() // both passes start from a collected heap
	plain := runPass(names, base, nil, nil)
	runtime.GC()

	reg := obs.NewRegistry()
	col := &spanCollector{}
	profPath := filepath.Join(rc.scratch, "cpu.pprof")
	traced, err := profiled(profPath, func() *batchPass { return runPass(names, base, reg, col) })
	if err != nil {
		return nil, err
	}
	failed, selfOK := 0, true
	for _, bp := range []*batchPass{plain, traced} {
		f, ok := checkPass(setup.check, bp)
		failed += f
		selfOK = selfOK && ok
	}
	rc.info["output_sha256"] = digest(traced.outs)
	rc.info["self_test"] = selfOK

	m := map[string]metric{}
	if err := layerMetrics(m, rc, col, reg, profPath, traced.wall/plain.wall); err != nil {
		return nil, err
	}
	in := probeInputs{params: traced.params, progs: setup.progs, order: setup.order}
	if err := probeLayers(m, in); err != nil {
		return nil, err
	}
	noServer(m)
	return &result{
		Correct: failed == 0 && selfOK, Attempted: 2 * len(names), Failed: failed, Metrics: m,
	}, nil
}

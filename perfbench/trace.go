package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
)

// spanCollector keeps every finished span of a traced run in memory
// (the tracer's own ring would drop the oldest).
type spanCollector struct {
	mu    sync.Mutex
	spans []span.Span
}

func (c *spanCollector) ExportSpan(s span.Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

func (c *spanCollector) snapshot() []span.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]span.Span(nil), c.spans...)
}

// newTracer returns a fully sampling tracer whose spans land in c.
func newTracer(c *spanCollector) *span.Tracer {
	return span.New(span.Options{Capacity: 1, Sink: c})
}

// kind is a span's name up to the first colon: "cell:table2/gcc/..."
// and "cell:fig4/..." are both "cell".
func kind(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// spanAgg sums the spans of one kind.
type spanAgg struct {
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed durations minus time covered by children
	Max   time.Duration
}

// interval is a closed-open [lo, hi) range of Unix nanoseconds.
type interval struct{ lo, hi int64 }

func spanInterval(s *span.Span) interval {
	return interval{s.Start.UnixNano(), s.Finish.UnixNano()}
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs []interval) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// selfTime is s's duration minus the part of it that covers spans
// overlap.
func selfTime(s *span.Span, covers []interval) time.Duration {
	iv := spanInterval(s)
	return time.Duration(iv.hi - iv.lo - covered(iv.lo, iv.hi, covers))
}

// spanIndex groups spans for aggregation.
type spanIndex struct {
	children map[span.SpanID][]interval
	byKind   map[string][]*span.Span
}

func indexSpans(spans []span.Span) *spanIndex {
	ix := &spanIndex{
		children: make(map[span.SpanID][]interval),
		byKind:   make(map[string][]*span.Span),
	}
	for i := range spans {
		s := &spans[i]
		if !s.Parent.IsZero() {
			ix.children[s.Parent] = append(ix.children[s.Parent], spanInterval(s))
		}
		k := kind(s.Name)
		ix.byKind[k] = append(ix.byKind[k], s)
	}
	return ix
}

// agg sums the spans of one kind, self time excluding child spans.
func (ix *spanIndex) agg(k string) spanAgg {
	var a spanAgg
	for _, s := range ix.byKind[k] {
		d := s.Duration()
		a.Count++
		a.Total += d
		a.Self += selfTime(s, ix.children[s.Context().Span])
		a.Max = max(a.Max, d)
	}
	return a
}

// lookupSelf sums the self time of trace-cache lookups (kinds lookups),
// excluding both their children and the recordings (kinds records)
// that ran inside them: cells start a recording beside the lookup span,
// under the same parent, so only the rest is lookup and wait time.
func (ix *spanIndex) lookupSelf(lookups, records []string) time.Duration {
	recBy := make(map[span.SpanID][]interval)
	for _, k := range records {
		for _, s := range ix.byKind[k] {
			recBy[s.Parent] = append(recBy[s.Parent], spanInterval(s))
		}
	}
	var total time.Duration
	for _, k := range lookups {
		for _, s := range ix.byKind[k] {
			covers := append(append([]interval(nil), ix.children[s.Context().Span]...), recBy[s.Parent]...)
			total += selfTime(s, covers)
		}
	}
	return total
}

// counter reads an unlabelled counter from a registry snapshot (0 when
// absent).
func counter(snap []obs.Metric, name string) float64 {
	for _, m := range snap {
		if m.Name == name && len(m.Labels) == 0 {
			return m.Value
		}
	}
	return 0
}

// ratio is a/b, or 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuRows are the modules a CPU profile is folded into, in report
// order. "gc" is garbage collection wherever it runs; "other" is the
// rest of the runtime, the standard library outside any module's call,
// and repository packages that are no layer of their own.
var cpuRows = []string{"emu", "mem", "cache", "bpred", "conf", "pipeline", "replay", "runner", "serve", "gc", "other"}

// moduleAlias folds helper packages into the layer that executes them.
var moduleAlias = map[string]string{
	"isa": "emu",   // instruction decoding helpers run inside emu and pipeline
	"btb": "bpred", // branch target buffer and return stack
}

// gcFrames mark a stack as garbage-collection work, including the
// assists charged to an allocating goroutine.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// frameModule maps one function name to its module row, or "" for a
// frame outside the repository.
func frameModule(fn string) string {
	const prefix = "specctrl/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return "other"
	}
	mod := rest[:end]
	if a, ok := moduleAlias[mod]; ok {
		mod = a
	}
	for _, r := range cpuRows {
		if r == mod {
			return mod
		}
	}
	return "other"
}

// foldStack assigns one sample's stack (leaf first) to a row: gc when
// any frame is collector work, else the module of the innermost
// repository frame, else other.
func foldStack(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if m := frameModule(fn); m != "" {
			return m
		}
	}
	return "other"
}

// foldTraces parses `go tool pprof -traces` output and returns each
// row's share of the sampled CPU time.
func foldTraces(r io.Reader) (map[string]float64, error) {
	sums := make(map[string]float64)
	var total float64
	var value float64
	var stack []string
	flush := func() {
		if stack != nil {
			sums[foldStack(stack)] += value
			total += value
		}
		stack = nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || (stack == nil && strings.Contains(line, ": ")) {
			continue // header lines ("Type: cpu") and blanks
		}
		if stack == nil {
			if len(fields) < 2 {
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue
			}
			value = d.Seconds()
			stack = []string{fields[1]}
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	shares := make(map[string]float64, len(cpuRows))
	for _, row := range cpuRows {
		shares[row] = sums[row] / total
	}
	return shares, nil
}

// foldProfile folds a CPU profile file by module with the toolchain's
// pprof.
func foldProfile(path, tmp string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Env = append(cmd.Environ(), "PPROF_TMPDIR="+tmp)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(strings.NewReader(string(out)))
}

// spanMetrics adds the span and counter aggregates of a traced run.
func spanMetrics(m map[string]metric, spans []span.Span, reg *obs.Registry) error {
	if len(spans) == 0 {
		return fmt.Errorf("traced run recorded no spans")
	}
	ix := indexSpans(spans)
	cells := ix.agg("cell")
	m["runner.cells"] = metric{float64(cells.Count), "count"}
	m["runner.queue_wait_s"] = metric{ix.agg("wait").Total.Seconds(), "s"}
	m["runner.cell_max_s"] = metric{cells.Max.Seconds(), "s"}
	for _, k := range []struct{ metric, span string }{
		{"replay.arch_record", "arch-record"},
		{"replay.events_record", "record"},
		{"replay.arch_replay", "arch-replay"},
		{"replay.events_replay", "replay"},
	} {
		a := ix.agg(k.span)
		m[k.metric+"_n"] = metric{float64(a.Count), "count"}
		m[k.metric+"_s"] = metric{a.Self.Seconds(), "s"}
	}
	m["replay.lookup_s"] = metric{ix.lookupSelf([]string{"trace", "arch"}, []string{"record", "arch-record"}).Seconds(), "s"}
	snap := reg.Snapshot()
	hitRatio := func(prefix string) float64 {
		hits := counter(snap, prefix+"_hits_total")
		return ratio(hits, hits+counter(snap, prefix+"_records_total")+counter(snap, prefix+"_fetches_total"))
	}
	m["replay.trace_hit_ratio"] = metric{hitRatio("specctrl_trace"), "ratio"}
	m["replay.arch_hit_ratio"] = metric{hitRatio("specctrl_archtrace"), "ratio"}
	return nil
}

// profiled runs f under the CPU profiler, writing the profile to path.
func profiled[T any](path string, f func() T) (T, error) {
	var zero T
	file, err := os.Create(path)
	if err != nil {
		return zero, err
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return zero, err
	}
	v := f()
	pprof.StopCPUProfile()
	if err := file.Close(); err != nil {
		return zero, err
	}
	return v, nil
}

package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"specctrl/internal/obs/span"
)

// spanBuilder builds finished spans on one tracer at fixed offsets (ms
// from a common origin).
type spanBuilder struct {
	tr     *span.Tracer
	col    *spanCollector
	origin time.Time
}

func newSpanBuilder() *spanBuilder {
	col := &spanCollector{}
	return &spanBuilder{tr: newTracer(col), col: col, origin: time.Unix(1000, 0)}
}

func (b *spanBuilder) add(parent span.Context, name string, from, to int) span.Context {
	s := b.tr.Child(parent, name)
	s.Start = b.origin.Add(time.Duration(from) * time.Millisecond)
	s.EndAt(b.origin.Add(time.Duration(to) * time.Millisecond))
	return s.Context()
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	b := newSpanBuilder()
	root := b.add(span.Context{}, "cell:x", 0, 100)
	b.add(root, "arch-replay", 10, 30)
	b.add(root, "arch-replay", 20, 40) // overlaps the first: union 10..40
	b.add(root, "merge", 90, 120)      // runs past the parent: clipped to 90..100
	ix := indexSpans(b.col.snapshot())
	cell := ix.agg("cell")
	if cell.Count != 1 || cell.Total != 100*time.Millisecond || cell.Self != 60*time.Millisecond {
		t.Errorf("cell agg = %+v, want count 1, total 100ms, self 60ms", cell)
	}
	ar := ix.agg("arch-replay")
	if ar.Count != 2 || ar.Self != 40*time.Millisecond || ar.Max != 20*time.Millisecond {
		t.Errorf("arch-replay agg = %+v, want count 2, self 40ms, max 20ms", ar)
	}
}

func TestLookupSelfExcludesSiblingRecording(t *testing.T) {
	b := newSpanBuilder()
	cellA := b.add(span.Context{}, "cell:a", 0, 100)
	b.add(cellA, "trace", 0, 80)
	b.add(cellA, "record", 10, 60) // started by the lookup, beside it
	cellB := b.add(span.Context{}, "cell:b", 0, 100)
	b.add(cellB, "arch", 0, 30)
	b.add(span.Context{}, "record", 0, 100) // another parent: not subtracted
	ix := indexSpans(b.col.snapshot())
	got := ix.lookupSelf([]string{"trace", "arch"}, []string{"record", "arch-record"})
	if want := (30 + 30) * time.Millisecond; got != want {
		t.Errorf("lookup self = %v, want %v", got, want)
	}
}

func TestCovered(t *testing.T) {
	ivs := []interval{{5, 15}, {0, 2}, {12, 20}, {30, 40}}
	if got := covered(0, 35, ivs); got != 2+15+5 {
		t.Errorf("covered = %d, want 22", got)
	}
	if got := covered(50, 60, ivs); got != 0 {
		t.Errorf("covered outside = %d", got)
	}
}

func TestFoldStack(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"specctrl/internal/replay.ArchReplay", "specctrl/internal/experiments.Params.archEval"}, "replay"},
		{[]string{"runtime.memmove", "specctrl/internal/conf.(*JRS).Resolve", "specctrl/internal/replay.ArchReplay"}, "conf"},
		{[]string{"specctrl/internal/isa.Op.IsCondBranch (inline)", "specctrl/internal/emu.ExecInto"}, "emu"},
		{[]string{"specctrl/internal/btb.(*BTB).Lookup", "specctrl/internal/pipeline.(*Sim).fetchGroup"}, "bpred"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "specctrl/internal/pipeline.(*Sim).Tick"}, "gc"},
		{[]string{"encoding/json.Marshal", "specctrl/internal/serve.(*Store).save"}, "serve"},
		{[]string{"specctrl/internal/experiments.archStats", "specctrl/internal/runner.(*Runner).Run.func1"}, "other"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
		{[]string{"specctrl/internal/obs/span.(*Tracer).record", "specctrl/internal/runner.(*Runner).Run.func1"}, "other"},
	} {
		if got := foldStack(tc.stack); got != tc.want {
			t.Errorf("foldStack(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// pprofTraces is the shape of `go tool pprof -traces` output.
const pprofTraces = `File: perfbench
Build ID: 19c45d30c2ada57027bd9eb07c9914b45dc2ade8
Type: cpu
Time: 2026-10-17 02:11:00 UTC
Duration: 10s, Total samples = 1.50s (15.00%)
-----------+-------------------------------------------------------
     1.20s   specctrl/internal/replay.ArchReplay
             specctrl/internal/experiments.Params.archEval
-----------+-------------------------------------------------------
     200ms   internal/runtime/atomic.(*Int32).Add (inline)
             specctrl/internal/conf.(*JRS).Resolve
-----------+-------------------------------------------------------
      50ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      50ms   runtime.futex
-----------+-------------------------------------------------------
`

func TestFoldTracesSharesSumToOne(t *testing.T) {
	shares, err := foldTraces(strings.NewReader(pprofTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"replay": 0.8, "conf": 0.2 / 1.5, "gc": 0.05 / 1.5, "other": 0.05 / 1.5}
	sum := 0.0
	for _, row := range cpuRows {
		sum += shares[row]
		if math.Abs(shares[row]-want[row]) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", row, shares[row], want[row])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := foldTraces(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Error("empty profile: want error")
	}
}

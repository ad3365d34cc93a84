package pipeline

import (
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/obs"
)

// nullTracer is the cheapest possible obs.Tracer: it measures the cost
// the pipeline itself adds when tracing is wired up, with no sink work.
type nullTracer struct{ n int }

func (t *nullTracer) Branch(obs.BranchEvent) { t.n++ }
func (t *nullTracer) Close() error           { return nil }

// warmTicks runs the simulator until its steady state: all ring
// buffers, the memory journal, and predictor tables at their final
// footprint. 20k cycles covers many squash/refill cycles of the
// random-branch loop.
const warmTicks = 20_000

func steadySim(t testing.TB, cfg Config) *Sim {
	t.Helper()
	sim := MustNew(cfg, loopProgram(1<<30), bpred.NewGshare(12))
	for i := 0; i < warmTicks; i++ {
		if done, err := sim.Tick(true); err != nil || done {
			t.Fatalf("warm-up ended early (done=%v, err=%v)", done, err)
		}
	}
	return sim
}

// TestSteadyStateAllocs is the allocation-regression gate for the
// per-cycle hot path: after warm-up, Tick must not allocate at all.
// Before the pending queue became a ring buffer, this path allocated
// on nearly every fetched branch (~1.4M allocations per 200k-committed
// run); any nonzero count here means a regression to that regime. The
// two JRS instances differ only in threshold, so the bank drives them
// as a threshold group, and SatCounters solo.
func TestSteadyStateAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCycles = 0
	half := conf.DefaultJRS
	half.Threshold = 7
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS), conf.NewJRS(half), conf.SatCounters{}}
	sim := steadySim(t, cfg)
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			if _, err := sim.Tick(true); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Tick allocates: %.2f allocs per 1000 cycles, want 0", avg)
	}
}

// TestSteadyStateAllocsWithTracer: attaching an obs tracer must not
// reintroduce per-event heap traffic — the event struct is passed by
// value and must not escape.
func TestSteadyStateAllocsWithTracer(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCycles = 0
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	tr := &nullTracer{}
	cfg.Tracer = tr
	sim := steadySim(t, cfg)
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			if _, err := sim.Tick(true); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Tick with tracer allocates: %.2f allocs per 1000 cycles, want 0", avg)
	}
	if tr.n == 0 {
		t.Fatal("tracer saw no events; the measurement is vacuous")
	}
}

// TestSteadyStateAllocsAllPredictors pins the zero-alloc property for
// every predictor the grid uses, both the devirtualized fast paths
// (gshare, mcfarling, sag) and the interface fallback.
func TestSteadyStateAllocsAllPredictors(t *testing.T) {
	preds := map[string]func() bpred.Predictor{
		"gshare":    func() bpred.Predictor { return bpred.NewGshare(12) },
		"mcfarling": func() bpred.Predictor { return bpred.NewMcFarling(12) },
		"sag":       func() bpred.Predictor { return bpred.NewSAg(11, 13) },
		"bimodal":   func() bpred.Predictor { return bpred.NewBimodal(12) },
	}
	for name, mk := range preds {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.MaxCycles = 0
			cfg.Estimators = []conf.Estimator{conf.SatCounters{}}
			sim := MustNew(cfg, loopProgram(1<<30), mk())
			for i := 0; i < warmTicks; i++ {
				if done, err := sim.Tick(true); err != nil || done {
					t.Fatalf("warm-up ended early (done=%v, err=%v)", done, err)
				}
			}
			avg := testing.AllocsPerRun(10, func() {
				for i := 0; i < 1000; i++ {
					if _, err := sim.Tick(true); err != nil {
						t.Fatal(err)
					}
				}
			})
			if avg != 0 {
				t.Errorf("%s: %.2f allocs per 1000 cycles, want 0", name, avg)
			}
		})
	}
}

// benchTick measures the per-cycle cost of the simulator loop in
// steady state — the number the whole experiment pipeline's wall
// clock is made of.
func benchTick(b *testing.B, cfg Config) {
	sim := steadySim(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Tick(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineTick(b *testing.B) {
	cfg := testConfig()
	cfg.MaxCycles = 0
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	benchTick(b, cfg)
}

func BenchmarkPipelineTickTraced(b *testing.B) {
	cfg := testConfig()
	cfg.MaxCycles = 0
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	cfg.Tracer = &nullTracer{}
	benchTick(b, cfg)
}

func BenchmarkPipelineTickNoEstimators(b *testing.B) {
	cfg := testConfig()
	cfg.MaxCycles = 0
	benchTick(b, cfg)
}

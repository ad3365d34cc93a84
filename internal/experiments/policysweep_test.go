package experiments

import (
	"reflect"
	"strings"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/gating"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/policy"
	"specctrl/internal/replay"
	"specctrl/internal/runner"
)

// TestUnpoliciedRunIgnoresEstimator pins the premise of the shared
// baseline: with no policy installed an estimator is passive, so every
// suite workload times identically with no estimator and with each
// estimator a policied policy-sweep run keys off.
func TestUnpoliciedRunIgnoresEstimator(t *testing.T) {
	p := tp()
	ests := append(gatingEstimators(), frontierEstimators()...)
	for _, w := range suite() {
		base, err := p.runOne(w, GshareSpec(), false)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ests {
			st, err := p.runOne(w, GshareSpec(), false, e.mk())
			if err != nil {
				t.Fatal(err)
			}
			if st.Cycles != base.Cycles || st.WrongPath != base.WrongPath ||
				st.Committed != base.Committed || st.Squashes != base.Squashes ||
				st.CycleAccounts != base.CycleAccounts {
				t.Errorf("%s with %s: cycles %d wrong-path %d committed %d squashes %d accounts %v; "+
					"estimator-free %d %d %d %d %v", w.Name, e.name,
					st.Cycles, st.WrongPath, st.Committed, st.Squashes, st.CycleAccounts,
					base.Cycles, base.WrongPath, base.Committed, base.Squashes, base.CycleAccounts)
			}
		}
	}
}

// gatingParams is the scale of the abl-gating grid-mechanics tests.
func gatingParams() Params {
	p := tp()
	p.MaxCommitted = 60_000
	return p
}

// gatingCells is abl-gating's grid size: one suite-sized cell per
// (estimator, threshold) plus the shared baseline cell.
func gatingCells() int {
	return 1 + len(gatingEstimators())*len(gatingThresholds)
}

// TestAblationGatingMatchesPairedRuns: the policy-sweep abl-gating
// renders exactly what per-workload gating.Run pairs (each gated run
// with its own baseline carrying the estimator) give under the
// suite-mean aggregation.
func TestAblationGatingMatchesPairedRuns(t *testing.T) {
	p := gatingParams()
	got, err := AblationGating(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Pipeline
	cfg.MaxCommitted = p.MaxCommitted
	want := &AblationGatingResult{}
	for _, e := range gatingEstimators() {
		f := policy.Factories{
			Predictor: func() bpred.Predictor { return bpred.NewGshare(p.GshareBits) },
			Estimator: e.mk,
		}
		for _, thr := range gatingThresholds {
			var red, slow float64
			for _, w := range suite() {
				r, err := gating.Run(gating.Config{Threshold: thr, Pipeline: cfg}, buildProgram(w, p.BuildIters), f)
				if err != nil {
					t.Fatal(err)
				}
				red += r.ExtraWorkReduction()
				slow += r.Slowdown()
			}
			n := float64(len(suite()))
			want.Points = append(want.Points, GatingPoint{
				Estimator: e.name, Threshold: thr, Reduction: red / n, Slowdown: slow / n,
			})
		}
	}
	if got.Render() != want.Render() {
		t.Fatalf("abl-gating differs from paired gating.Run runs:\n--- got ---\n%s--- want ---\n%s",
			got.Render(), want.Render())
	}
}

// TestAblationGatingDeterminism: abl-gating is byte-identical at any
// Jobs width. Each side gets its own cache, so both simulate every run
// rather than the wide side reading the serial side's run tier.
func TestAblationGatingDeterminism(t *testing.T) {
	serial := gatingParams()
	serial.Jobs = 1
	serial.TraceCache = replay.NewCache(0, nil)
	wide := gatingParams()
	wide.Jobs = 8
	wide.TraceCache = replay.NewCache(0, nil)
	r1, err := AblationGating(serial)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := AblationGating(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) || r1.Render() != r8.Render() {
		t.Fatal("abl-gating differs between Jobs=1 and Jobs=8")
	}
}

// TestAblationGatingShardRoundTrip: sharded abl-gating runs partition
// the grid and merge back to the direct render.
func TestAblationGatingShardRoundTrip(t *testing.T) {
	shardRoundTrip(t, gatingParams, gatingCells(),
		func(p Params) (Renderer, error) { return AblationGating(p) })
}

// TestPolicySweepRunCounts: every policy-sweep run is one simulation
// through runOne, so over a cold run tier specctrl_runs_total counts the
// grid's runs exactly, and each simulate span names its policy ("none"
// for the baselines).
func TestPolicySweepRunCounts(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		want int
	}{
		{"abl-gating", 80},
		{"frontier", 104},
	} {
		p := frontierParams()
		p.Obs = obs.NewRegistry()
		p.Tracer = span.New(span.Options{Capacity: 4096})
		p.TraceCache = replay.NewCache(0, nil)
		if _, err := Run(tc.exp, p); err != nil {
			t.Fatal(err)
		}
		if got := p.Obs.Counter("specctrl_runs_total", nil).Value(); got != uint64(tc.want) {
			t.Errorf("%s: specctrl_runs_total = %d, want %d", tc.exp, got, tc.want)
		}
		policied, baselines := 0, 0
		for _, s := range p.Tracer.Snapshot() {
			if s.Name != "simulate" {
				continue
			}
			for _, a := range s.Attrs {
				if a.Key == "policy" && a.Value == "none" {
					baselines++
				} else if a.Key == "policy" {
					policied++
				}
			}
		}
		if baselines != len(suite()) || policied != tc.want-len(suite()) {
			t.Errorf("%s: %d baseline and %d policied simulate spans, want %d and %d",
				tc.exp, baselines, policied, len(suite()), tc.want-len(suite()))
		}
	}
}

// TestPolicySweepRejectsMalformedCells: a preloaded sweep cell without
// one Stats per suite workload (a cell of another shape) is an error,
// not a short or nil-indexed merge.
func TestPolicySweepRejectsMalformedCells(t *testing.T) {
	p := gatingParams()
	key := runner.Spec{Experiment: "abl-gating", Workload: "suite", Predictor: "gshare", Variant: policyBaseline}.Key()
	p.Cells = map[string]CellResult{key: {Extra: map[string]float64{"reduction": 0.5}}}
	if _, err := AblationGating(p); err == nil || !strings.Contains(err.Error(), "0 runs") {
		t.Fatalf("got %v, want an error naming the cell's 0 runs", err)
	}
}

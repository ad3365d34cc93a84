package experiments

import (
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"specctrl/internal/conf"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
	"specctrl/internal/replay"
	"specctrl/internal/workload"
)

// runLedger is a Backing on the run tier that serves nothing and notes
// every run as the tier inserts it: how often each address was
// simulated, and a snapshot of the entry's Stats at insert.
type runLedger struct {
	mu        sync.Mutex
	simulated map[string]int
	snapshots map[string][]byte
}

func newRunLedger() *runLedger {
	return &runLedger{simulated: map[string]int{}, snapshots: map[string][]byte{}}
}

func (l *runLedger) Fetch(string) (*pipeline.Stats, bool) { return nil, false }

func (l *runLedger) Store(addr string, st *pipeline.Stats) {
	data, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.simulated[addr]++
	l.snapshots[addr] = data
}

// ledgered returns Params over a cold run tier with a fresh registry and
// a ledger installed on the tier.
func ledgered(p Params) (Params, *runLedger) {
	p.Obs = obs.NewRegistry()
	p.TraceCache = replay.NewCache(0, p.Obs)
	l := newRunLedger()
	p.TraceCache.Runs.SetBacking(l)
	return p, l
}

// renderAll runs the named experiments in order and returns their
// renders.
func renderAll(t *testing.T, p Params, names ...string) []string {
	t.Helper()
	var out []string
	for _, name := range names {
		r, err := Run(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, r.Render())
	}
	return out
}

func runsTotal(p Params) uint64 { return p.Obs.Counter("specctrl_runs_total", nil).Value() }

// TestRunTierDedupsSpeculationControl: frontier's baseline cell and its
// six gate:{1,2,3}@{JRS(t=15),SatCnt} cells repeat abl-gating's runs
// exactly, so through one run tier the pair simulates 184 - 56 = 128
// runs, none of them twice. Under -replay off the tier is off: all 184
// runs simulate and the renders are the same bytes.
func TestRunTierDedupsSpeculationControl(t *testing.T) {
	base := gatingParams()
	base.Jobs = 2

	p, ledger := ledgered(base)
	tiered := renderAll(t, p, "abl-gating", "frontier")
	if got := runsTotal(p); got != 128 {
		t.Errorf("specctrl_runs_total = %d, want 128", got)
	}
	if got := p.Obs.Counter("specctrl_run_records_total", nil).Value(); got != 128 {
		t.Errorf("specctrl_run_records_total = %d, want 128", got)
	}
	if len(ledger.simulated) != 128 {
		t.Errorf("%d distinct runs simulated, want 128", len(ledger.simulated))
	}
	for addr, n := range ledger.simulated {
		if n != 1 {
			t.Errorf("run %s simulated %d times", addr[:12], n)
		}
	}

	off, _ := ledgered(base)
	off.Replay = ReplayOff
	direct := renderAll(t, off, "abl-gating", "frontier")
	if got := runsTotal(off); got != 184 {
		t.Errorf("-replay off: specctrl_runs_total = %d, want 184", got)
	}
	if n := off.TraceCache.Runs.Len(); n != 0 {
		t.Errorf("-replay off: run tier holds %d runs, want 0", n)
	}
	for i := range tiered {
		if tiered[i] != direct[i] {
			t.Errorf("render %d differs between the run tier and -replay off:\n--- tier ---\n%s--- off ---\n%s",
				i, tiered[i], direct[i])
		}
	}
}

// TestRunAddressKeysEstimatorGeometry: two JRS configurations with one
// Name() but different table geometry steer a gate:2 policy through
// different tables, so they are two runs, not one.
func TestRunAddressKeysEstimatorGeometry(t *testing.T) {
	p, ledger := ledgered(frontierParams())
	small := conf.DefaultJRS
	small.Entries = 256
	a, b := conf.NewJRS(conf.DefaultJRS), conf.NewJRS(small)
	if a.Name() != b.Name() {
		t.Fatalf("precondition: names %q and %q differ", a.Name(), b.Name())
	}
	w := workload.Suite()[0]
	for _, e := range []conf.Estimator{a, b} {
		pol, err := policy.Parse("gate:2")
		if err != nil {
			t.Fatal(err)
		}
		p.Pipeline.Policy = pol
		if _, err := p.runOne(w, GshareSpec(), false, e); err != nil {
			t.Fatal(err)
		}
	}
	if got := runsTotal(p); got != 2 || len(ledger.simulated) != 2 {
		t.Errorf("%d simulations over %d addresses, want 2 and 2", got, len(ledger.simulated))
	}
}

// TestRunAddressKeysPassiveEstimators: without a policy an estimator
// does not change timing, but it owns Stats.Confidence and the
// quadrants, so an unpolicied run with JRS and one without estimators
// must not share an entry.
func TestRunAddressKeysPassiveEstimators(t *testing.T) {
	p, _ := ledgered(frontierParams())
	w := workload.Suite()[0]
	plain, err := p.runOne(w, GshareSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	jrs, err := p.runOne(w, GshareSpec(), false, conf.NewJRS(conf.DefaultJRS))
	if err != nil {
		t.Fatal(err)
	}
	if got := runsTotal(p); got != 2 {
		t.Errorf("specctrl_runs_total = %d, want 2", got)
	}
	if len(plain.Confidence) != 0 || len(jrs.Confidence) != 1 {
		t.Errorf("Confidence lengths %d and %d, want 0 and 1", len(plain.Confidence), len(jrs.Confidence))
	}
	// The same run again is served, not simulated.
	if _, err := p.runOne(w, GshareSpec(), false, conf.NewJRS(conf.DefaultJRS)); err != nil {
		t.Fatal(err)
	}
	if got := runsTotal(p); got != 2 {
		t.Errorf("repeat run simulated: specctrl_runs_total = %d, want 2", got)
	}
}

// TestRunTierUnaddressableEstimatorSimulates: an estimator without a
// complete identity (Static's profiled site set) gives its run no
// address, so every such run simulates.
func TestRunTierUnaddressableEstimatorSimulates(t *testing.T) {
	p, _ := ledgered(frontierParams())
	static := conf.Static{HighConfidence: map[int64]bool{}, Threshold: 0.9}
	if _, ok := p.RunAddress("compress", GshareSpec(), []conf.Estimator{static}); ok {
		t.Fatal("RunAddress addressed a Static estimator")
	}
	w := workload.Suite()[0]
	for i := 0; i < 2; i++ {
		if _, err := p.runOne(w, GshareSpec(), false, static); err != nil {
			t.Fatal(err)
		}
	}
	if got := runsTotal(p); got != 2 {
		t.Errorf("specctrl_runs_total = %d, want 2", got)
	}
	if n := p.TraceCache.Runs.Len(); n != 0 {
		t.Errorf("run tier holds %d runs, want 0", n)
	}
}

// TestRunTierEntriesImmutable: run tier entries are shared by every
// cell and experiment that asks for the run, so none may modify them.
// Two passes of table1, abl-gating and frontier through one Params
// render identically, and every resident entry still deep-equals the
// snapshot taken when it was inserted. Run under -race, this also
// checks that sharing an entry across concurrent cells races nothing.
func TestRunTierEntriesImmutable(t *testing.T) {
	base := frontierParams()
	base.Jobs = 2
	p, ledger := ledgered(base)
	names := []string{"table1", "abl-gating", "frontier"}
	first := renderAll(t, p, names...)
	second := renderAll(t, p, names...)
	if !reflect.DeepEqual(first, second) {
		t.Error("second pass through the warm run tier renders differently")
	}
	if len(ledger.snapshots) == 0 {
		t.Fatal("no run entered the tier")
	}
	for addr, data := range ledger.snapshots {
		st, ok := p.TraceCache.Runs.Get(addr)
		if !ok {
			t.Errorf("run %s evicted", addr[:12])
			continue
		}
		var snap pipeline.Stats
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*st, snap) {
			t.Errorf("run %s changed after insert", addr[:12])
		}
	}
}

// TestRunAccountingOneSource: every simulation goes through simulate,
// so over cold caches specctrl_runs_total, the simulate, record and
// arch-record spans, and the -v lines count the same runs, profiling
// passes, resolve-depth and BTB runs included.
func TestRunAccountingOneSource(t *testing.T) {
	for _, tc := range []struct{ exp, replay string }{
		{"abl-depth", ""},
		{"abl-indirect", ""},
		{"xinput", ""},
		{"tuned", ""},
		{"table4", ""},
		{"table2", ReplayOff},
	} {
		p := frontierParams()
		p.Jobs = 2
		p.Replay = tc.replay
		p.Obs = obs.NewRegistry()
		p.TraceCache = replay.NewCache(0, nil)
		p.ArchCache = replay.NewArchCache(0, nil)
		p.Tracer = span.New(span.Options{Capacity: 1 << 16})
		var lines atomic.Uint64
		p.Progress = func(string) { lines.Add(1) }
		if _, err := Run(tc.exp, p); err != nil {
			t.Fatalf("%s: %v", tc.exp, err)
		}
		var spans uint64
		for _, s := range p.Tracer.Snapshot() {
			switch s.Name {
			case "simulate", "record", "arch-record":
				spans++
			}
		}
		if runs := runsTotal(p); runs == 0 || spans != runs || lines.Load() != runs {
			t.Errorf("%s: specctrl_runs_total %d, %d simulation spans, %d -v lines; want them equal and nonzero",
				tc.exp, runs, spans, lines.Load())
		}
	}
}

// TestRunTierServesAblations: abl-depth's resolve depth and
// abl-indirect's BTB front end are pipeline fields RunAddress hashes,
// so both experiments are served by the run tier: a first pass
// simulates each of their runs once, and a second pass over the same
// cache simulates nothing and renders the same bytes.
func TestRunTierServesAblations(t *testing.T) {
	p, ledger := ledgered(frontierParams())
	p.Jobs = 2
	names := []string{"abl-depth", "abl-indirect"}
	first := renderAll(t, p, names...)
	want := len(depthSweep)*len(suite())*2 + len(suite())*2
	firstRuns := runsTotal(p)
	if firstRuns != uint64(want) || len(ledger.simulated) != want {
		t.Errorf("first pass: specctrl_runs_total = %d over %d addresses, want %d and %d",
			firstRuns, len(ledger.simulated), want, want)
	}
	second := renderAll(t, p, names...)
	if got := runsTotal(p); got != firstRuns {
		t.Errorf("second pass simulated %d runs, want 0", got-firstRuns)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("second pass renders differently:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestRecordTraceStatsMatchDirectRun is the premise for letting an
// event-tier recording fill the run tier's unpolicied, estimator-free
// entries: for every suite workload and predictor, the base Stats
// recordTrace returns equal a direct runOne's field by field, with nil
// and empty Confidence, Events and Sites counted as equal.
func TestRecordTraceStatsMatchDirectRun(t *testing.T) {
	p := TestParams()
	off := p
	off.Replay = ReplayOff
	for _, w := range suite() {
		for _, spec := range AllPredictors() {
			_, rec, err := p.recordTrace(w, spec)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := off.runOne(w, spec, false)
			if err != nil {
				t.Fatal(err)
			}
			a, b := *rec, *direct
			for _, st := range []*pipeline.Stats{&a, &b} {
				if len(st.Confidence) == 0 {
					st.Confidence = nil
				}
				if len(st.Events) == 0 {
					st.Events = nil
				}
				if len(st.Sites) == 0 {
					st.Sites = nil
				}
			}
			va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
			for i := 0; i < va.NumField(); i++ {
				if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
					t.Errorf("%s/%s: recorded and direct %s differ", w.Name, spec.Name, va.Type().Field(i).Name)
				}
			}
		}
	}
}

package pipeline

import (
	"reflect"
	"slices"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/rng"
)

// TestBankGroupsByTable pins the grouping plan: scorers sharing a table
// key form one group per table, cuts ascending (ties in estimator
// order); a scorer alone on its table and every non-scorer are driven
// solo, in estimator order. Statistics stay exact either way (see
// replay's TestGroupedSweepMatchesSingletons), so this is the test that
// notices a sweep silently losing its shared table.
func TestBankGroupsByTable(t *testing.T) {
	jrs := func(th int) conf.Estimator {
		return conf.NewJRS(conf.JRSConfig{Entries: 256, Bits: 4, Threshold: th})
	}
	b := NewBank([]conf.Estimator{
		jrs(9),              // 0
		conf.SatCounters{},  // 1
		conf.NewDistance(4), // 2
		jrs(3),              // 3
		conf.NewJRS(conf.JRSConfig{Entries: 512, Bits: 4, Threshold: 3}), // 4: another table
		conf.NewDistance(1), // 5
		jrs(9),              // 6
	})
	var groups [][]int
	for _, g := range b.groups {
		var ids []int
		for _, m := range g.members {
			ids = append(ids, m.i)
		}
		groups = append(groups, ids)
	}
	if want := [][]int{{3, 0, 6}, {5, 2}}; !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
	var solo []int
	for _, f := range b.solo {
		solo = append(solo, f.i)
	}
	if want := []int{1, 4}; !reflect.DeepEqual(solo, want) {
		t.Errorf("solo = %v, want %v", solo, want)
	}
}

// oracleStats books one estimator's verdicts exactly as the simulator
// did before threshold groups existed: every estimator estimates and
// trains on its own, and each verdict is recorded into its quadrants
// and mis-estimation distance histogram as it happens.
type oracleStats struct {
	e    conf.Estimator
	cs   ConfStats
	dist int
}

func (o *oracleStats) fetch(pc int64, info bpred.Info, correct, committed bool) {
	hc := o.e.Estimate(pc, info)
	o.cs.AllQ.Record(correct, hc)
	if !committed {
		return
	}
	o.cs.CommittedQ.Record(correct, hc)
	o.dist++
	o.cs.MisestCommitted.Record(o.dist, hc != correct)
	if hc != correct {
		o.dist = 0
	}
}

// TestGroupKernelMatchesPerMemberOracle drives a bank and a per-member
// reference over the same random fetch/resolve streams and requires
// every ConfStats field to agree, reading the bank's Stats at random
// points mid-stream (twice in a row, to pin that reading does not
// disturb it) and at the end. The streams mix wrong-path fetches,
// resolve lag and branch sites of different predictability, so every
// split of every group occurs and mis-estimation gaps run past the last
// distance bucket.
func TestGroupKernelMatchesPerMemberOracle(t *testing.T) {
	ests := func() []conf.Estimator {
		var out []conf.Estimator
		for _, th := range []int{15, 0, 7, 3, 11, 1, 9, 5, 13, 2, 9, 14, 6, 12, 4, 8} {
			out = append(out, conf.NewJRS(conf.JRSConfig{Entries: 64, Bits: 4, Threshold: th, Enhanced: th%2 == 0}))
		}
		// Two tables: the odd and even thresholds above differ in
		// Enhanced, so they form a group of nine (9 repeated) and one
		// of seven.
		out = append(out, conf.SatCounters{})
		for _, th := range []int{3, 0, 7, 1} {
			out = append(out, conf.NewDistance(th))
		}
		for _, th := range []int{16, 4, 12, 12} {
			out = append(out, conf.NewOnesCount(conf.OnesCountConfig{Entries: 256, Bits: 16, Threshold: th, Enhanced: true}))
		}
		return out
	}
	type fetched struct {
		pc      int64
		info    bpred.Info
		correct bool
	}
	var tail uint64 // mis-estimates booked into the last distance bucket
	for seed := uint64(1); seed <= 4; seed++ {
		g := rng.New(seed)
		bank := NewBank(ests())
		var oracle []*oracleStats
		for _, e := range ests() {
			oracle = append(oracle, &oracleStats{e: e, cs: ConfStats{Name: e.Name()}})
		}
		check := func(when string) {
			t.Helper()
			want := make([]ConfStats, len(oracle))
			for i, o := range oracle {
				want[i] = o.cs
			}
			got := slices.Clone(bank.Stats())
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: %s: bank %+v, oracle %+v", seed, when, want[i].Name, got[i], want[i])
				}
			}
			if again := bank.Stats(); !slices.Equal(again, got) {
				t.Fatalf("seed %d %s: a second Stats read differs", seed, when)
			}
		}
		var pending []fetched
		calm := 0
		for step := 0; step < 60_000; step++ {
			if len(pending) > 0 && (len(pending) > 24 || g.Intn(3) == 0) {
				f := pending[0]
				pending = pending[1:]
				bank.Resolve(f.pc, &f.info, f.correct)
				for _, o := range oracle {
					o.e.Resolve(f.pc, f.info, f.correct)
				}
				continue
			}
			pc := int64(g.Intn(48))
			info := bpred.Info{
				Pred: g.Intn(2) == 0,
				Hist: g.Uint64() & 0xfff,
				C1:   bpred.Counter2(g.Intn(4)),
				C2:   bpred.Counter2(g.Intn(4)),
				Meta: bpred.Counter2(g.Intn(4)),
				P1:   g.Intn(2) == 0,
				P2:   g.Intn(2) == 0,
			}
			// Most sites are well predicted, a few are coin flips; a
			// calm stretch is all right and committed, so open gaps
			// grow through the last distance bucket while checked on
			// every fetch.
			correct := g.Float64() < 0.97
			if pc%8 == 0 {
				correct = g.Intn(2) == 0
			}
			committed := g.Intn(5) != 0
			if calm == 0 && g.Intn(4000) == 0 {
				calm = 2 * DistanceBuckets
			}
			if calm > 0 {
				calm--
				correct, committed = true, true
			}
			bank.Fetch(pc, &info, correct, committed)
			for _, o := range oracle {
				o.fetch(pc, info, correct, committed)
			}
			if committed {
				pending = append(pending, fetched{pc, info, correct})
			}
			if calm > 0 || g.Intn(500) == 0 {
				check("mid-stream")
			}
		}
		check("at the end")
		for _, gr := range bank.groups {
			n := len(gr.members)
			for split := 0; split <= n; split++ {
				if split > 0 && split < n && gr.members[split-1].cut == gr.members[split].cut {
					continue // equal cuts never split apart
				}
				if split == 0 && gr.members[0].cut <= 0 {
					continue // scores are never negative
				}
				var seen uint64
				for kind := 0; kind < 4; kind++ {
					seen += gr.counts[kind*(n+1)+split]
				}
				if seen == 0 {
					t.Fatalf("seed %d: %s group never split at %d", seed, gr.leader.Name(), split)
				}
			}
		}
		for _, o := range oracle {
			tail += o.cs.MisestCommitted.Mispredict[DistanceBuckets-1]
		}
	}
	if tail == 0 {
		t.Fatal("no mis-estimation gap reached the last distance bucket; the clamp path went untested")
	}
}

package pipeline

import (
	"cmp"
	"slices"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
)

// Bank drives a set of confidence estimators through one branch stream
// and keeps their per-estimator statistics. It is the one estimator
// fan-out: the simulator feeds it live fetches and resolutions, and
// trace replay (internal/replay) feeds it recorded ones, so every drive
// site shares the dispatch, the threshold grouping and the quadrant and
// mis-estimation bookkeeping below.
//
// Fetch and Resolve follow the conf.Estimator contract: Fetch once per
// fetched conditional branch in fetch order, Resolve once per resolved
// branch in program order with its fetch-time arguments.
//
// Scorers (conf.Scorer) whose Table keys are equal form a threshold
// group: one leader's score, read once per fetch, is compared against
// every member's cut, and only the leader trains. A group therefore
// needs its members freshly constructed and distinct, and leaves the
// non-leader instances untrained. Every other estimator, and every group
// of one, is driven on its own through the devirtualized solo path. A
// Bank is single-goroutine state.
type Bank struct {
	confs  []ConfStats
	dist   []int // committed branches since each estimator's last mis-estimate
	groups []scoreGroup
	solo   []soloEst
}

// NewBank prepares a bank over ests; Stats()[i] reports ests[i].
func NewBank(ests []conf.Estimator) *Bank {
	b := new(Bank)
	b.init(ests)
	return b
}

// init builds the bank in place. Each scorer is tagged with its table's
// lead (the first scorer with an equal Table key), and sorting by
// (lead, cut) lays every threshold group out contiguously with cuts
// ascending, so a bank costs a few slices whatever its group count.
func (b *Bank) init(ests []conf.Estimator) {
	b.confs = make([]ConfStats, len(ests))
	b.dist = make([]int, len(ests))
	var scored []member
	for i, e := range ests {
		b.confs[i].Name = e.Name()
		sc, ok := e.(conf.Scorer)
		if !ok {
			b.addSolo(i, e, len(ests))
			continue
		}
		if scored == nil {
			scored = make([]member, 0, len(ests))
		}
		m := member{i: i, cut: sc.Cut(), lead: i}
		key := sc.Table()
		for _, o := range scored {
			if o.lead == o.i && ests[o.i].(conf.Scorer).Table() == key {
				m.lead = o.i
				break
			}
		}
		scored = append(scored, m)
	}
	slices.SortStableFunc(scored, func(x, y member) int {
		return cmp.Or(cmp.Compare(x.lead, y.lead), cmp.Compare(x.cut, y.cut))
	})
	for len(scored) > 0 {
		n := 1
		for n < len(scored) && scored[n].lead == scored[0].lead {
			n++
		}
		run := scored[:n]
		scored = scored[n:]
		if n == 1 {
			// A group of one gains nothing from the shared score; the
			// solo path devirtualizes the common families.
			b.addSolo(run[0].i, ests[run[0].i], len(ests))
			continue
		}
		var upTo uint64
		for k := range run {
			if run[k].i < 64 {
				upTo |= 1 << uint(run[k].i)
			}
			run[k].upTo = upTo
		}
		if b.groups == nil {
			b.groups = make([]scoreGroup, 0, 1+len(scored)/2)
		}
		b.groups = append(b.groups, scoreGroup{leader: ests[run[0].lead].(conf.Scorer), members: run})
	}
	slices.SortFunc(b.solo, func(x, y soloEst) int { return cmp.Compare(x.i, y.i) })
}

// addSolo drives estimator i on its own.
func (b *Bank) addSolo(i int, e conf.Estimator, n int) {
	if b.solo == nil {
		b.solo = make([]soloEst, 0, n)
	}
	b.solo = append(b.solo, soloEst{i, e})
}

// Stats returns the per-estimator statistics accumulated so far, in the
// order of the estimators NewBank was given.
func (b *Bank) Stats() []ConfStats { return b.confs }

// Fetch estimates one fetched conditional branch with every estimator
// and records the verdicts: quadrants over all fetched branches and,
// for committed ones, the committed quadrants and mis-estimation
// distances. correct reports whether the prediction in info was right;
// info is passed by pointer only to spare the copy, and is not retained.
// It returns the first estimator's verdict (true when the bank is
// empty) and the ConfMask, bit i set when estimator i said high
// confidence; estimators past the 64th have no bit.
func (b *Bank) Fetch(pc int64, info *bpred.Info, correct, committed bool) (hc0 bool, mask uint64) {
	confs, dist := b.confs, b.dist
	for gi := range b.groups {
		mask |= b.groups[gi].fetch(b, pc, info, correct, committed)
	}
	for _, f := range b.solo {
		var hc bool
		switch e := f.e.(type) {
		case *conf.JRS:
			hc = e.Estimate(pc, *info)
		case conf.SatCounters:
			hc = e.Estimate(pc, *info)
		case conf.SatCountersMcFarling:
			hc = e.Estimate(pc, *info)
		case conf.PatternHistory:
			hc = e.Estimate(pc, *info)
		case conf.Static:
			hc = e.Estimate(pc, *info)
		default:
			hc = e.Estimate(pc, *info)
		}
		if hc {
			mask |= 1 << uint(f.i)
		}
		cs := &confs[f.i]
		cs.AllQ.Record(correct, hc)
		if committed {
			cs.CommittedQ.Record(correct, hc)
			dist[f.i]++
			if hc != correct {
				cs.MisestCommitted.Record(dist[f.i], true)
				dist[f.i] = 0
			} else {
				cs.MisestCommitted.Record(dist[f.i], false)
			}
		}
	}
	return len(confs) == 0 || mask&1 != 0, mask
}

// Resolve trains every estimator on one resolved branch.
func (b *Bank) Resolve(pc int64, info *bpred.Info, correct bool) {
	for gi := range b.groups {
		if j, ok := b.groups[gi].leader.(*conf.JRS); ok {
			j.Resolve(pc, *info, correct)
		} else {
			b.groups[gi].leader.Resolve(pc, *info, correct)
		}
	}
	for _, f := range b.solo {
		switch e := f.e.(type) {
		case *conf.JRS:
			e.Resolve(pc, *info, correct)
		case conf.SatCounters, conf.SatCountersMcFarling, conf.PatternHistory, conf.Static:
			// Value-type families keep no per-branch state; Resolve is empty.
		default:
			e.Resolve(pc, *info, correct)
		}
	}
}

// soloEst is one estimator driven on its own. Fetch and resolve
// devirtualize the common families with a type switch: their Estimate
// bodies are a handful of instructions, so the interface call was most
// of their cost.
type soloEst struct {
	i int // index into the bank's estimators
	e conf.Estimator
}

// scoreGroup is a set of scorers identical except for their threshold.
// Their state evolves identically, so the leader's score serves every
// member and only the leader trains.
type scoreGroup struct {
	leader  conf.Scorer
	members []member // sorted by cut, ascending
}

// member is one scorer of a threshold group.
type member struct {
	i, cut int
	lead   int    // index of the group's first scorer
	upTo   uint64 // ConfMask bits of the members up to and including this one
}

// fetch scores one fetch event and records it for every member,
// returning the members' ConfMask bits. With cuts ascending, one scan
// finds the high/low-confidence split for this score; each side then
// updates its quadrant cells with the branchy decisions (correct × hc ×
// mis-estimate) already made.
func (g *scoreGroup) fetch(b *Bank, pc int64, info *bpred.Info, correct, committed bool) uint64 {
	var score int
	if j, ok := g.leader.(*conf.JRS); ok {
		score = j.Score(pc, *info)
	} else {
		score = g.leader.Score(pc, *info)
	}
	split := 0
	for split < len(g.members) && score >= g.members[split].cut {
		split++
	}
	mem, confs, dist := g.members, b.confs, b.dist
	switch {
	case correct && committed:
		for _, m := range mem[:split] { // high confidence, estimate right
			cs := &confs[m.i]
			cs.AllQ.Chc++
			cs.CommittedQ.Chc++
			dist[m.i]++
			cs.MisestCommitted.Record(dist[m.i], false)
		}
		for _, m := range mem[split:] { // low confidence: a mis-estimate
			cs := &confs[m.i]
			cs.AllQ.Clc++
			cs.CommittedQ.Clc++
			dist[m.i]++
			cs.MisestCommitted.Record(dist[m.i], true)
			dist[m.i] = 0
		}
	case committed: // mispredicted: high confidence is the mis-estimate
		for _, m := range mem[:split] {
			cs := &confs[m.i]
			cs.AllQ.Ihc++
			cs.CommittedQ.Ihc++
			dist[m.i]++
			cs.MisestCommitted.Record(dist[m.i], true)
			dist[m.i] = 0
		}
		for _, m := range mem[split:] {
			cs := &confs[m.i]
			cs.AllQ.Ilc++
			cs.CommittedQ.Ilc++
			dist[m.i]++
			cs.MisestCommitted.Record(dist[m.i], false)
		}
	case correct:
		for _, m := range mem[:split] {
			confs[m.i].AllQ.Chc++
		}
		for _, m := range mem[split:] {
			confs[m.i].AllQ.Clc++
		}
	default:
		for _, m := range mem[:split] {
			confs[m.i].AllQ.Ihc++
		}
		for _, m := range mem[split:] {
			confs[m.i].AllQ.Ilc++
		}
	}
	if split == 0 {
		return 0
	}
	return mem[split-1].upTo
}

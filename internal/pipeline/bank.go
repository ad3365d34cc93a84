package pipeline

import (
	"cmp"
	"slices"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/metrics"
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
	dist   []int // committed branches since each solo estimator's last mis-estimate
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
// ascending, and the groups' histograms share two slices (allocGroups),
// so a bank costs a few slices whatever its group count.
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
	b.allocGroups()
	slices.SortFunc(b.solo, func(x, y soloEst) int { return cmp.Compare(x.i, y.i) })
}

// allocGroups carves every group's histograms out of two bank-wide
// slices.
func (b *Bank) allocGroups() {
	words, members := 0, 0
	for _, g := range b.groups {
		words += 4*(len(g.members)+1) + len(g.members)
		members += len(g.members)
	}
	if members == 0 {
		return
	}
	tally := make([]uint64, words)
	gaps := make([]gapHist, members)
	for gi := range b.groups {
		g := &b.groups[gi]
		n := len(g.members)
		g.counts, tally = tally[:4*(n+1):4*(n+1)], tally[4*(n+1):]
		g.last, tally = tally[:n:n], tally[n:]
		g.gaps, gaps = gaps[:n:n], gaps[n:]
	}
}

// addSolo drives estimator i on its own.
func (b *Bank) addSolo(i int, e conf.Estimator, n int) {
	if b.solo == nil {
		b.solo = make([]soloEst, 0, n)
	}
	b.solo = append(b.solo, soloEst{i, e})
}

// Stats returns the per-estimator statistics accumulated so far, in the
// order of the estimators NewBank was given. The slice is the bank's
// own and is rewritten in place by every later Stats call: threshold
// group members' entries are derived from the group's histograms on
// each read, while solo estimators' entries are kept live.
func (b *Bank) Stats() []ConfStats {
	for gi := range b.groups {
		b.groups[gi].derive(b.confs)
	}
	return b.confs
}

// Fetch estimates one fetched conditional branch with every estimator
// and records the verdicts: quadrants over all fetched branches and,
// for committed ones, the committed quadrants and mis-estimation
// distances (for threshold groups, as the histograms Stats derives
// them from). correct reports whether the prediction in info was right;
// info is passed by pointer only to spare the copy, and is not retained.
// It returns the first estimator's verdict (true when the bank is
// empty) and the ConfMask, bit i set when estimator i said high
// confidence; estimators past the 64th have no bit.
func (b *Bank) Fetch(pc int64, info *bpred.Info, correct, committed bool) (hc0 bool, mask uint64) {
	confs, dist := b.confs, b.dist
	for gi := range b.groups {
		mask |= b.groups[gi].fetch(pc, info, correct, committed)
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
//
// A fetch costs the group one histogram count plus one gap close per
// member that mis-estimated it; derive turns the histograms back into
// every member's exact ConfStats. Member k (cuts ascending) said high
// confidence exactly when the fetch's split exceeded k, so its
// quadrants are prefix sums of counts over split. Its mis-estimation
// distances are determined by the lengths of the runs of committed
// fetches between its mis-estimates (gaps), and by the still-open run
// since its last one.
type scoreGroup struct {
	leader  conf.Scorer
	members []member // sorted by cut, ascending

	// counts[(committed<<1|correct)*(len(members)+1) + split] counts
	// fetches by kind and split.
	counts []uint64
	clock  uint64    // committed fetches so far
	last   []uint64  // clock at each member's last mis-estimate
	gaps   []gapHist // each member's closed gaps
}

// gapHist counts one member's closed gaps by length, clamped into the
// last distance bucket; over sums how far the clamped gaps ran past it.
type gapHist struct {
	n    [DistanceBuckets]uint64
	over uint64
}

// member is one scorer of a threshold group.
type member struct {
	i, cut int
	lead   int    // index of the group's first scorer
	upTo   uint64 // ConfMask bits of the members up to and including this one
}

// fetch scores one fetch event and records it, returning the members'
// ConfMask bits. With cuts ascending, one scan finds the high/low
// confidence split for this score; a committed fetch then closes the
// gap of each member on the mis-estimating side of it: the low side
// when the prediction was right, the high side when it was wrong.
func (g *scoreGroup) fetch(pc int64, info *bpred.Info, correct, committed bool) uint64 {
	var score int
	if j, ok := g.leader.(*conf.JRS); ok {
		score = j.Score(pc, *info)
	} else {
		score = g.leader.Score(pc, *info)
	}
	mem := g.members
	split := 0
	for split < len(mem) && score >= mem[split].cut {
		split++
	}
	kind := 0
	if committed {
		kind = 2
	}
	if correct {
		kind |= 1
	}
	g.counts[kind*(len(mem)+1)+split]++
	if committed {
		g.clock++
		lo, hi := split, len(mem)
		if !correct {
			lo, hi = 0, split
		}
		for k := lo; k < hi; k++ {
			gap := g.clock - g.last[k]
			g.last[k] = g.clock
			h := &g.gaps[k]
			if gap >= DistanceBuckets-1 {
				h.n[DistanceBuckets-1]++
				h.over += gap - (DistanceBuckets - 1)
			} else {
				h.n[gap]++
			}
		}
	}
	if split == 0 {
		return 0
	}
	return mem[split-1].upTo
}

// derive writes every member's ConfStats into confs from the group's
// histograms. It recomputes from scratch, so it may run at any point
// of the stream, any number of times.
func (g *scoreGroup) derive(confs []ConfStats) {
	n := len(g.members)
	row := func(kind int) []uint64 { return g.counts[kind*(n+1) : (kind+1)*(n+1)] }
	wi, wc, ci, cc := row(0), row(1), row(2), row(3)
	var total [4]uint64
	for s := 0; s <= n; s++ {
		total[0] += wi[s]
		total[1] += wc[s]
		total[2] += ci[s]
		total[3] += cc[s]
	}
	var low [4]uint64 // fetches whose split is at most k: k said low
	for k, m := range g.members {
		low[0] += wi[k]
		low[1] += wc[k]
		low[2] += ci[k]
		low[3] += cc[k]
		cs := &confs[m.i]
		cs.CommittedQ = metrics.Quadrant{
			Chc: total[3] - low[3], Clc: low[3],
			Ihc: total[2] - low[2], Ilc: low[2],
		}
		cs.AllQ = metrics.Quadrant{
			Chc: cs.CommittedQ.Chc + total[1] - low[1], Clc: low[3] + low[1],
			Ihc: cs.CommittedQ.Ihc + total[0] - low[0], Ilc: low[2] + low[0],
		}
		g.deriveMisest(&cs.MisestCommitted, k)
	}
}

// deriveMisest rebuilds member k's mis-estimation distance histogram.
// A closed gap of length d booked distances 1..d, the last one as a
// mis-estimate; the open gap booked 1..its length, none of them
// mis-estimates. Distances past the last bucket clamp into it.
func (g *scoreGroup) deriveMisest(h *DistanceHist, k int) {
	const top = DistanceBuckets - 1
	gh := &g.gaps[k]
	open := g.clock - g.last[k]
	*h = DistanceHist{Mispredict: gh.n}
	h.Total[top] = gh.n[top] + gh.over
	if open >= top {
		h.Total[top] += open - top + 1
	}
	// Below the last bucket, Total[d] counts the gaps, closed or open,
	// at least d long.
	atLeast := gh.n[top]
	if open >= top {
		atLeast++
	}
	for d := top - 1; d >= 1; d-- {
		atLeast += gh.n[d]
		if open == uint64(d) {
			atLeast++
		}
		h.Total[d] = atLeast
	}
}

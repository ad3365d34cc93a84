package pipeline

import "specctrl/internal/obs"

// simGauges holds the pre-resolved obs instruments one Sim publishes
// into, so the periodic publish is pure atomic stores with no registry
// lookups or allocation.
type simGauges struct {
	cycles    *obs.Gauge
	committed *obs.Gauge
	wrongPath *obs.Gauge
	squashes  *obs.Gauge
	branches  *obs.Gauge
	ipc       *obs.Gauge
	mispRate  *obs.Gauge
	buckets   [NumCycleBuckets]*obs.Gauge
	ests      []estGauges
}

// estGauges is one estimator's live committed-quadrant view: the raw
// quadrant counts plus the paper's four derived metrics.
type estGauges struct {
	chc, ihc, clc, ilc   *obs.Gauge
	sens, spec, pvp, pvn *obs.Gauge
}

// newSimGauges registers this run's series under the base label set,
// one estimator label per ConfStats entry.
func newSimGauges(reg *obs.Registry, base obs.Labels, ests []ConfStats) *simGauges {
	g := &simGauges{
		cycles:    reg.Gauge("specctrl_sim_cycles", base),
		committed: reg.Gauge("specctrl_sim_committed_instructions", base),
		wrongPath: reg.Gauge("specctrl_sim_wrong_path_instructions", base),
		squashes:  reg.Gauge("specctrl_sim_squashes", base),
		branches:  reg.Gauge("specctrl_sim_committed_branches", base),
		ipc:       reg.Gauge("specctrl_sim_ipc", base),
		mispRate:  reg.Gauge("specctrl_sim_mispredict_rate", base),
	}
	for b := CycleBucket(0); b < NumCycleBuckets; b++ {
		g.buckets[b] = reg.Gauge("specctrl_sim_cycle_bucket",
			base.With("bucket", b.String()))
	}
	g.ests = make([]estGauges, len(ests))
	for i, e := range ests {
		l := base.With("estimator", e.Name)
		g.ests[i] = estGauges{
			chc:  reg.Gauge("specctrl_sim_conf_quadrant_chc", l),
			ihc:  reg.Gauge("specctrl_sim_conf_quadrant_ihc", l),
			clc:  reg.Gauge("specctrl_sim_conf_quadrant_clc", l),
			ilc:  reg.Gauge("specctrl_sim_conf_quadrant_ilc", l),
			sens: reg.Gauge("specctrl_sim_conf_sens", l),
			spec: reg.Gauge("specctrl_sim_conf_spec", l),
			pvp:  reg.Gauge("specctrl_sim_conf_pvp", l),
			pvn:  reg.Gauge("specctrl_sim_conf_pvn", l),
		}
	}
	return g
}

// publish pushes the run's current statistics into the registry and
// progress view. Called every Config.MetricsInterval cycles and once
// from Finish; everything it touches is atomic, so concurrent HTTP
// scrapes see consistent single values mid-run.
func (s *Sim) publish() {
	st := &s.stats
	if g := s.gauges; g != nil {
		g.cycles.SetUint(st.Cycles)
		g.committed.SetUint(st.Committed)
		g.wrongPath.SetUint(st.WrongPath)
		g.squashes.SetUint(st.Squashes)
		g.branches.SetUint(st.CommittedBr)
		g.ipc.Set(st.IPC())
		g.mispRate.Set(st.CommittedQ.MispredictRate())
		for b := CycleBucket(0); b < NumCycleBuckets; b++ {
			g.buckets[b].SetUint(st.CycleAccounts[b])
		}
		if len(g.ests) != 0 {
			s.bank.Stats() // derive the threshold groups' entries
		}
		for i := range g.ests {
			q := st.Confidence[i].CommittedQ
			eg := &g.ests[i]
			eg.chc.SetUint(q.Chc)
			eg.ihc.SetUint(q.Ihc)
			eg.clc.SetUint(q.Clc)
			eg.ilc.SetUint(q.Ilc)
			eg.sens.Set(q.Sens())
			eg.spec.Set(q.Spec())
			eg.pvp.Set(q.PVP())
			eg.pvn.Set(q.PVN())
		}
	}
	if p := s.cfg.Progress; p != nil {
		p.Update(st.Committed, st.Cycles, st.CommittedBr, st.CommittedQ.Incorrect())
	}
}

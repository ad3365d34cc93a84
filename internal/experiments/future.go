package experiments

import (
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/profile"
	"specctrl/internal/workload"
)

// JRSMcfRow is one estimator's suite-mean metrics in the §5 future-work
// comparison on the McFarling predictor.
type JRSMcfRow struct {
	Estimator string
	Metrics   metrics.Metrics
}

// JRSMcfResult evaluates the paper's §5 sketch — a JRS variant "designed
// to better exploit the structure of the McFarling two-level branch
// predictor" — against the plain JRS under the McFarling predictor.
type JRSMcfResult struct {
	Rows []JRSMcfRow
}

// JRSMcf runs plain JRS and both two-table variants at two thresholds.
func JRSMcf(p Params) (*JRSMcfResult, error) {
	mk := func() []conf.Estimator {
		base := conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: 15, Enhanced: true}
		mid := base
		mid.Threshold = 7
		return []conf.Estimator{
			conf.NewJRS(base),
			conf.NewJRSMcFarling(base, conf.BothTables),
			conf.NewJRSMcFarling(base, conf.MetaSelected),
			conf.NewJRS(mid),
			conf.NewJRSMcFarling(mid, conf.BothTables),
			conf.NewJRSMcFarling(mid, conf.MetaSelected),
		}
	}
	names := []string{
		"JRS t=15", "JRSmcf-both t=15", "JRSmcf-meta t=15",
		"JRS t=7", "JRSmcf-both t=7", "JRSmcf-meta t=7",
	}
	perEst := make([][]metrics.Quadrant, len(names))
	stats, err := p.suiteStats("jrsmcf", McFarlingSpec(), "main", len(names),
		func(_ Params, _ workload.Workload) ([]conf.Estimator, error) { return mk(), nil })
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		for i := range names {
			perEst[i] = append(perEst[i], st.Confidence[i].CommittedQ)
		}
	}
	res := &JRSMcfResult{}
	for i, n := range names {
		res.Rows = append(res.Rows, JRSMcfRow{
			Estimator: n,
			Metrics:   metrics.AggregateNormalized(perEst[i]).Compute(),
		})
	}
	return res, nil
}

// Find returns the named row.
func (r *JRSMcfResult) Find(name string) (JRSMcfRow, bool) {
	for _, row := range r.Rows {
		if row.Estimator == name {
			return row, true
		}
	}
	return JRSMcfRow{}, false
}

// Render prints the comparison.
func (r *JRSMcfResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Future work (§5): McFarling-structured JRS vs plain JRS (McFarling predictor)"))
	fmt.Fprintf(&b, "%-18s %5s %5s %5s %5s\n", "estimator", "sens", "spec", "pvp", "pvn")
	for _, row := range r.Rows {
		m := row.Metrics
		fmt.Fprintf(&b, "%-18s %s %s %s %s\n",
			row.Estimator, pct(m.Sens), pct(m.Spec), pct(m.PVP), pct(m.PVN))
	}
	return b.String()
}

// TunedRow is one tuned static estimator's target vs achieved metrics,
// suite means.
type TunedRow struct {
	Goal    string
	Target  float64
	Metrics metrics.Metrics
}

// TunedResult evaluates the §5 tuned static estimator: choose the
// low-confidence site set from a profile to hit a SPEC or PVN target,
// then measure what it actually achieves.
type TunedResult struct {
	Rows []TunedRow
}

// Tuned profiles each workload once under gshare, builds tuned
// estimators for a grid of SPEC and PVN targets from the same profile,
// and evaluates them all in a single run per workload.
func Tuned(p Params) (*TunedResult, error) {
	type spec struct {
		goal   profile.TuneGoal
		name   string
		target float64
	}
	grid := []spec{
		{profile.GoalSPEC, "SPEC", 0.50},
		{profile.GoalSPEC, "SPEC", 0.70},
		{profile.GoalSPEC, "SPEC", 0.90},
		{profile.GoalPVN, "PVN", 0.20},
		{profile.GoalPVN, "PVN", 0.30},
		{profile.GoalPVN, "PVN", 0.40},
	}
	perCfg := make([][]metrics.Quadrant, len(grid))
	stats, err := p.suiteStats("tuned", GshareSpec(), "main", len(grid),
		func(p Params, w workload.Workload) ([]conf.Estimator, error) {
			// Profile pass, inside the cell: the site stats never leave it.
			sites, err := p.profileSites(w, buildProgram(w, p.BuildIters), GshareSpec())
			if err != nil {
				return nil, fmt.Errorf("tuned profile %s: %w", w.Name, err)
			}
			// Build one estimator per grid point and evaluate together.
			ests := make([]conf.Estimator, len(grid))
			for i, g := range grid {
				est, err := profile.Tune(sites, g.goal, g.target)
				if err != nil {
					return nil, fmt.Errorf("tuned %s %s %.2f: %w", w.Name, g.name, g.target, err)
				}
				ests[i] = est
			}
			return ests, nil
		})
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		for i := range grid {
			perCfg[i] = append(perCfg[i], st.Confidence[i].CommittedQ)
		}
	}
	res := &TunedResult{}
	for i, g := range grid {
		res.Rows = append(res.Rows, TunedRow{
			Goal:    g.name,
			Target:  g.target,
			Metrics: metrics.AggregateNormalized(perCfg[i]).Compute(),
		})
	}
	return res, nil
}

// Render prints target vs achieved.
func (r *TunedResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Future work (§5): tuned static confidence (gshare, self-profiled)"))
	fmt.Fprintf(&b, "%-6s %7s | %5s %5s %5s %5s\n", "goal", "target", "sens", "spec", "pvp", "pvn")
	for _, row := range r.Rows {
		m := row.Metrics
		fmt.Fprintf(&b, "%-6s %6.0f%% | %s %s %s %s\n",
			row.Goal, row.Target*100, pct(m.Sens), pct(m.Spec), pct(m.PVP), pct(m.PVN))
	}
	return b.String()
}

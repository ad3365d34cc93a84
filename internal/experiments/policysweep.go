package experiments

import (
	"context"
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
	"specctrl/internal/runner"
)

// The policy-sweep grid is how the speculation-control experiments
// (abl-gating, frontier) compare policied runs against their baseline.
// Every run is one gshare simulation of one suite workload: one per
// (workload, estimator, policy), plus one estimator-free, unpolicied
// baseline per workload. Estimators are passive without a policy, so
// the baseline is the same run whichever estimator a policied run keys
// off (TestUnpoliciedRunIgnoresEstimator pins this), and every
// estimator anchors to it. A grid cell is suite-sized: the baseline
// cell, or one (estimator, policy) cell, simulates every workload in
// suite order and returns their Stats in CellResult.Runs; the
// experiments derive every number at merge time.

// namedEstimator is a confidence source a policied cell keys off.
type namedEstimator struct {
	name string
	mk   func() conf.Estimator
}

// policyBaseline is the variant of the baseline cell. A policied
// cell's variant is "<policy>@<estimator>". Neither shape matches a
// variant of the suite cells these experiments had before the shared
// baseline ("<estimator>|<policy>", "<estimator>-thr<t>"), so a stored
// cell of the old shape is never read as one of these.
const policyBaseline = "no-ctrl"

// policySweep holds a policy-sweep grid's statistics in suite order.
type policySweep struct {
	base []*pipeline.Stats     // [workload]
	runs [][][]*pipeline.Stats // [estimator][policy][workload]
}

// runPolicySweep simulates the grid of ests x policies (canonical
// policy.Parse specs) over the suite. Policies perturb fetch timing, so
// no trace tier applies; every run goes through runOne's run tier
// instead, so a run another sweep already simulated under the same
// cache (frontier's baselines and gate:t cells repeat abl-gating's) is
// served, not simulated again.
func (p Params) runPolicySweep(experiment string, ests []namedEstimator, policies []string) (*policySweep, error) {
	cellSpec := func(variant string) runner.Spec {
		return runner.Spec{Experiment: experiment, Workload: "suite", Predictor: "gshare", Variant: variant}
	}
	specs := []runner.Spec{cellSpec(policyBaseline)}
	for _, e := range ests {
		for _, pol := range policies {
			specs = append(specs, cellSpec(pol+"@"+e.name))
		}
	}
	cells, err := p.runGrid(specs, func(_ context.Context, p Params, sp runner.Spec) (CellResult, error) {
		// The sweep owns the policy slot: the baseline runs unpolicied
		// and each policied run installs exactly its cell's policy.
		p.Pipeline.Policy = nil
		var c CellResult
		if sp.Variant == policyBaseline {
			for _, w := range suite() {
				st, err := p.runOne(w, GshareSpec(), false)
				if err != nil {
					return CellResult{}, err
				}
				c.Runs = append(c.Runs, st)
			}
			return c, nil
		}
		spec, estName, _ := strings.Cut(sp.Variant, "@")
		var mk func() conf.Estimator
		for _, e := range ests {
			if e.name == estName {
				mk = e.mk
			}
		}
		if mk == nil {
			return CellResult{}, fmt.Errorf("%s: unknown estimator %q", experiment, estName)
		}
		for _, w := range suite() {
			// Policies carry run state: every run gets a fresh one.
			pol, err := policy.Parse(spec)
			if err != nil {
				return CellResult{}, fmt.Errorf("%s: %w", experiment, err)
			}
			p.Pipeline.Policy = pol
			st, err := p.runOne(w, GshareSpec(), false, mk())
			if err != nil {
				return CellResult{}, err
			}
			c.Runs = append(c.Runs, st)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	for i, c := range cells {
		if len(c.Runs) != len(suite()) {
			return nil, fmt.Errorf("%s: cell %s has %d runs, want one per suite workload (%d)",
				experiment, specs[i].Key(), len(c.Runs), len(suite()))
		}
		for _, st := range c.Runs {
			if st == nil {
				return nil, fmt.Errorf("%s: cell %s has a run without stats", experiment, specs[i].Key())
			}
		}
	}
	sw := &policySweep{base: cells[0].Runs, runs: make([][][]*pipeline.Stats, len(ests))}
	i := 1
	for ei := range ests {
		for range policies {
			sw.runs[ei] = append(sw.runs[ei], cells[i].Runs)
			i++
		}
	}
	return sw, nil
}

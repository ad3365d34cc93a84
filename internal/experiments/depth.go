package experiments

import (
	"context"
	"fmt"
	"strings"

	"specctrl/internal/conf"
	"specctrl/internal/metrics"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// DepthRow is one resolve-depth configuration's suite means.
type DepthRow struct {
	ResolveDelay int
	Ratio        float64 // all/committed instructions
	MispGshare   float64
	MispSAg      float64
	JRSPVN       float64
	JRSSpec      float64
	IPC          float64
}

// AblationDepthResult sweeps the fetch-to-resolve depth, the machine
// parameter behind this reproduction's main deviation from the paper:
// deeper resolution means longer wrong-path excursions (higher
// speculation ratio, toward the paper's 1.2-2.0) but also staler
// non-speculative SAg history. The table shows both effects and that the
// JRS estimator's quality metrics are nearly depth-invariant — the
// estimators measure the branch stream, not the machine.
type AblationDepthResult struct {
	Rows []DepthRow
}

// depthSweep lists the resolve depths the ablation covers.
var depthSweep = []int{2, 3, 5, 8}

// depthCell simulates one (workload, predictor, depth) point. The depth
// is carried in the spec variant ("d<depth>"); the gshare cells also run
// the JRS estimator, the SAg cells run bare.
func depthCell(_ context.Context, p Params, sp runner.Spec) (CellResult, error) {
	w, err := workload.ByName(sp.Workload)
	if err != nil {
		return CellResult{}, err
	}
	if _, err := fmt.Sscanf(sp.Variant, "d%d", &p.Pipeline.ResolveDelay); err != nil {
		return CellResult{}, fmt.Errorf("depth: bad variant %q: %w", sp.Variant, err)
	}
	spec, ests := GshareSpec(), []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	if sp.Predictor == SAgSpec().Name {
		spec, ests = SAgSpec(), nil
	}
	st, err := p.runOne(w, spec, false, ests...)
	if err != nil {
		return CellResult{}, fmt.Errorf("depth %s: %w", sp.Variant, err)
	}
	return CellResult{Stats: st}, nil
}

// AblationDepth runs the suite at resolve depths 2..8, one grid cell per
// (depth, workload, predictor).
func AblationDepth(p Params) (*AblationDepthResult, error) {
	var gridSpecs []runner.Spec
	for _, depth := range depthSweep {
		for _, w := range suite() {
			for _, pred := range []string{GshareSpec().Name, SAgSpec().Name} {
				gridSpecs = append(gridSpecs, runner.Spec{
					Experiment: "abl-depth", Workload: w.Name, Predictor: pred,
					Variant: fmt.Sprintf("d%d", depth),
				})
			}
		}
	}
	cells, err := p.runGrid(gridSpecs, depthCell)
	if err != nil {
		return nil, err
	}
	res := &AblationDepthResult{}
	i := 0
	for _, depth := range depthSweep {
		var committed, wrongPath uint64
		var gMispSum, sMispSum, ipcSum float64
		var jrsQ []metrics.Quadrant
		for range suite() {
			st := cells[i].Stats
			committed += st.Committed
			wrongPath += st.WrongPath
			gMispSum += st.MispredictRate()
			ipcSum += st.IPC()
			jrsQ = append(jrsQ, st.Confidence[0].CommittedQ)
			sMispSum += cells[i+1].Stats.MispredictRate()
			i += 2
		}
		n := float64(len(suite()))
		jrs := metrics.AggregateNormalized(jrsQ).Compute()
		res.Rows = append(res.Rows, DepthRow{
			ResolveDelay: depth,
			Ratio:        float64(committed+wrongPath) / float64(committed),
			MispGshare:   gMispSum / n,
			MispSAg:      sMispSum / n,
			JRSPVN:       jrs.PVN,
			JRSSpec:      jrs.Spec,
			IPC:          ipcSum / n,
		})
	}
	return res, nil
}

// Render prints the depth sweep.
func (r *AblationDepthResult) Render() string {
	var b strings.Builder
	b.WriteString(header("Ablation: fetch-to-resolve depth (suite means)"))
	fmt.Fprintf(&b, "%6s %7s %8s %8s %8s %8s %6s\n",
		"depth", "ratio", "gshare", "sag", "jrs-pvn", "jrs-spec", "ipc")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %7.3f %7.1f%% %7.1f%% %7.1f%% %7.1f%% %6.2f\n",
			row.ResolveDelay, row.Ratio, row.MispGshare*100, row.MispSAg*100,
			row.JRSPVN*100, row.JRSSpec*100, row.IPC)
	}
	return b.String()
}

package experiments

import (
	"context"
	"fmt"

	"specctrl/internal/conf"
	"specctrl/internal/obs/span"
	"specctrl/internal/pipeline"
	"specctrl/internal/profile"
	"specctrl/internal/replay"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// Architectural-trace evaluation: the upstream tier of record/replay.
//
// The experiments classified ConsumesCommitted in the registry
// (table2, table2-detail, table3, auc, patterns, misest) are defined
// over the committed branch stream alone: their canonical semantics is
// a trace-driven evaluation — predictor and estimator models stepped
// over the committed (pc, outcome) sequence with every branch resolved
// immediately — not a cycle simulation. All three -replay modes
// therefore produce byte-identical results for them by construction;
// the mode only selects how the stream is obtained:
//
//	arch    the ArchCache, keyed by ArchTraceAddress (one recording
//	        per workload, shared across predictors, estimators,
//	        experiments, and — through the cluster backing — machines)
//	events  derived from the canonical predictor's event-tier trace
//	        (replay.ArchFromTrace), sharing the recording the Fig 3-5
//	        sweeps already pay for
//	off     a fresh recording run per cell, nothing cached
//
// The committed stream itself is predictor-independent, but its length
// is not: the simulator stops after the fetch cycle that crosses the
// committed-instruction budget, and that overshoot depends on fetch
// alignment, i.e. on timing. Recording therefore always uses one
// canonical configuration — the gshare predictor at Params.GshareBits —
// in every mode, so all modes reconstruct the identical stream.

// archEligible reports whether the canonical trace-driven evaluation
// applies under these parameters; replayActive is this check plus the
// ReplayOff escape hatch. It is deliberately independent of
// Params.Replay (the replay mode changes stream acquisition, never
// semantics): base
// estimators, tracers, event logs, and site-stats collection need a
// real simulation, and a speculation-control policy perturbs the
// committed stream itself by changing what commits when.
func (p Params) archEligible() bool {
	return len(p.Pipeline.Estimators) == 0 &&
		p.Pipeline.Tracer == nil &&
		p.Pipeline.Policy == nil &&
		!p.Pipeline.RecordEvents &&
		!p.Pipeline.CollectSiteStats
}

// defaultArchCache backs Params with a nil ArchCache: one shared
// process-wide cache, metrics-less, with the default byte budget.
var defaultArchCache = replay.NewArchCache(0, nil)

func (p Params) archCache() *replay.ArchCache {
	if p.ArchCache != nil {
		return p.ArchCache
	}
	return defaultArchCache
}

// recordArch simulates one workload under the canonical recording
// configuration (gshare, no estimators) with an ArchRecorder attached
// and returns the committed branch-outcome stream.
func (p Params) recordArch(w workload.Workload) (*replay.ArchTrace, error) {
	rec := replay.NewArchRecorder()
	p.Pipeline.Tracer = rec
	st, err := p.simulate(kindArch, w, buildProgram(w, p.BuildIters), GshareSpec(), false, nil)
	if err != nil {
		return nil, err
	}
	rec.SetCommitted(st.Committed)
	return rec.Trace(), nil
}

// archStreamFor returns the workload's committed branch stream by
// whatever acquisition route Params.Replay selects: the arch cache
// (recording through it on a miss, singleflight), a derivation from
// the canonical predictor's event-tier trace, or — under ReplayOff — a
// fresh uncached recording. Every route reconstructs the identical
// stream; differential tests pin that. When traced, the lookup gets an
// "arch" span carrying the route's outcome and the stream's length.
func (p Params) archStreamFor(w workload.Workload) (*replay.ArchTrace, error) {
	var ts *span.Span
	if p.Tracer != nil {
		ts = p.Tracer.Child(p.SpanParent, "arch", span.Str("workload", w.Name))
		defer ts.End()
	}
	var t *replay.ArchTrace
	var outcome replay.Outcome
	var err error
	switch p.Replay {
	case ReplayOff:
		outcome = "direct"
		t, err = p.recordArch(w)
	case ReplayEvents:
		outcome = "events"
		tr, base, err := p.traceFor(w, GshareSpec())
		if err != nil {
			return nil, err
		}
		t = replay.ArchFromTrace(tr, base.Committed)
	default: // ReplayArch, ReplayAuto, ""
		t, outcome, err = p.archCache().GetOrRecordOutcome(p.Ctx, p.ArchTraceAddress(w.Name),
			func() (*replay.ArchTrace, error) { return p.recordArch(w) })
	}
	if ts != nil {
		ts.SetAttrs(span.Str("outcome", string(outcome)))
		if err == nil {
			ts.SetAttrs(span.Int("branches", int64(t.Branches())))
		}
	}
	return t, err
}

// archStats assembles the Stats the canonical evaluation defines: the
// stream's committed-instruction and branch counts, the per-estimator
// statistics, and the first estimator's quadrants mirrored into the
// top-level fields the way the simulator mirrors them. Timing fields
// (cycles, squashes, wrong-path counts) are zero — the committed
// stream has no timing, and no ConsumesCommitted experiment reads
// them. With every branch committed and resolved immediately, AllBr
// equals CommittedBr and each estimator's AllQ equals its CommittedQ.
func archStats(t *replay.ArchTrace, confs []pipeline.ConfStats) *pipeline.Stats {
	st := &pipeline.Stats{
		Committed:   t.Committed(),
		CommittedBr: uint64(t.Branches()),
		AllBr:       uint64(t.Branches()),
		Confidence:  confs,
	}
	if len(confs) > 0 {
		st.AllQ = confs[0].AllQ
		st.CommittedQ = confs[0].CommittedQ
	}
	return st
}

// archStatic builds the static estimator from the committed stream: a
// canonical-predictor profiling pass over the trace (replay.ArchSites)
// instead of a profiling simulation, thresholded exactly like
// profile.Collect.
func (p Params) archStatic(t *replay.ArchTrace, spec PredictorSpec) conf.Static {
	return profile.FromSites(replay.ArchSites(t, spec.New(p)),
		profile.Options{Threshold: p.StaticThreshold})
}

// archEval is the arch-tier equivalent of evalEstimators: it obtains
// the workload's committed stream and evaluates the predictor spec and
// estimators against it in one pass. Callers must have checked
// archEligible.
func (p Params) archEval(w workload.Workload, spec PredictorSpec, ests ...conf.Estimator) (*pipeline.Stats, error) {
	t, err := p.archStreamFor(w)
	if err != nil {
		return nil, err
	}
	var rs *span.Span
	if p.Tracer != nil {
		rs = p.Tracer.Child(p.SpanParent, "arch-replay",
			span.Str("workload", w.Name), span.Str("predictor", spec.Name),
			span.Int("estimators", int64(len(ests))))
	}
	confs := replay.ArchReplay(t, spec.New(p), ests)
	if rs != nil {
		rs.SetAttrs(span.Int("branches", int64(t.Branches())))
		rs.End()
	}
	return archStats(t, confs), nil
}

// suiteStatsArch is suiteStats routed through the arch tier: one cell
// per suite benchmark, each evaluating the full estimator list in one
// pass over the workload's committed stream. Grids keep the exact spec
// keys of the direct path — no #record/#replay batch cells; the arch
// cache's singleflight already dedups recordings — so cell addresses
// (and therefore cached cells and cluster units) are identical across
// all replay modes. Parameters that fail archEligible fall back to
// suiteStats, which applies the events-replay/direct choice unchanged.
func (p Params) suiteStatsArch(experiment string, spec PredictorSpec, variant string, nEsts int,
	ests func(p Params, w workload.Workload) ([]conf.Estimator, error)) ([]*pipeline.Stats, error) {
	if !p.archEligible() {
		return p.suiteStats(experiment, spec, variant, nEsts, ests)
	}
	cells, err := p.runGrid(suiteSpecs(experiment, spec, variant),
		func(_ context.Context, p Params, sp runner.Spec) (CellResult, error) {
			w, err := workload.ByName(sp.Workload)
			if err != nil {
				return CellResult{}, err
			}
			es, err := ests(p, w)
			if err != nil {
				return CellResult{}, err
			}
			if len(es) != nEsts {
				return CellResult{}, fmt.Errorf("experiments: %s estimator builder returned %d estimators, caller declared %d",
					experiment, len(es), nEsts)
			}
			st, err := p.archEval(w, spec, es...)
			if err != nil {
				return CellResult{}, err
			}
			return CellResult{Stats: st}, nil
		})
	if err != nil {
		return nil, err
	}
	stats := make([]*pipeline.Stats, len(cells))
	for i := range cells {
		stats[i] = cells[i].Stats
	}
	return stats, nil
}

package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"specctrl/internal/conf"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/pipeline"
	"specctrl/internal/replay"
	"specctrl/internal/runner"
	"specctrl/internal/workload"
)

// Record-once / replay-many estimator evaluation.
//
// Estimators are passive observers (see internal/replay's package
// comment), so the experiments layer simulates each (workload,
// predictor, pipeline identity) at most once — recording the
// estimator-visible branch-event stream into a content-addressed cache
// keyed by TraceAddress — and evaluates every estimator configuration
// by replaying the recording. Because TraceAddress excludes the
// experiment, variant, and estimator identity, the trace recorded for
// one experiment serves every other: a full `-exp all` run simulates
// each (workload, predictor) pair once and replays everything else.
//
// The two entry points are evalEstimators (a drop-in for runOne inside
// grid cells) and suiteStatsReplay (the replay-shaped suite sweep,
// reached through suiteStats), both gated by replayActive.

// replayActive reports whether replay-backed evaluation applies under
// these parameters. Direct simulation is kept for the explicit
// ReplayOff escape hatch and for every configuration archEligible
// rejects: observation side channels that need the real run, and
// policied pipelines, whose perturbed fetch timing means the
// estimator-visible event stream is no longer the unpolicied recording.
func (p Params) replayActive() bool {
	return p.Replay != ReplayOff && p.archEligible()
}

// defaultTraceCache backs Params with a nil TraceCache: one shared
// process-wide cache, metrics-less, with the default byte budget.
var defaultTraceCache = replay.NewCache(0, nil)

func (p Params) traceCache() *replay.Cache {
	if p.TraceCache != nil {
		return p.TraceCache
	}
	return defaultTraceCache
}

// recordTrace simulates one (workload, predictor) pair with the trace
// recorder attached and returns the recording plus the run's base
// statistics. The recorder reports high confidence on every branch, so
// the base statistics are identical to an estimator-less run; its
// Confidence entry is stripped before the stats are shared.
func (p Params) recordTrace(w workload.Workload, spec PredictorSpec) (*replay.Trace, *pipeline.Stats, error) {
	rec := replay.NewRecorder()
	p.Pipeline.Tracer = rec
	st, err := p.simulate(kindRecord, w, buildProgram(w, p.BuildIters), spec, false, []conf.Estimator{rec})
	if err != nil {
		return nil, nil, err
	}
	tr, err := rec.Trace()
	if err != nil {
		return nil, nil, fmt.Errorf("record %s/%s: %w", w.Name, spec.Name, err)
	}
	st.Confidence = nil
	return tr, st, nil
}

// traceFor returns the (workload, predictor) trace and base stats,
// recording them through the trace cache on a miss (singleflight: one
// recording no matter how many cells want it first). When traced, the
// cache consultation gets a "trace" span whose outcome attribute says
// whether the trace was resident ("hit"), freshly recorded ("record"),
// or shared from another cell's in-flight recording ("wait"), and whose
// events attribute is the trace's length.
func (p Params) traceFor(w workload.Workload, spec PredictorSpec) (*replay.Trace, *pipeline.Stats, error) {
	var ts *span.Span
	if p.Tracer != nil {
		ts = p.Tracer.Child(p.SpanParent, "trace",
			span.Str("workload", w.Name), span.Str("predictor", spec.Name))
		defer ts.End()
	}
	r, outcome, err := p.traceCache().GetOrRecordOutcome(p.Ctx, p.TraceAddress(w.Name, spec),
		func() (replay.Recording, error) {
			tr, st, err := p.recordTrace(w, spec)
			return replay.Recording{Trace: tr, Stats: st}, err
		})
	if ts != nil {
		ts.SetAttrs(span.Str("outcome", string(outcome)))
		if err == nil {
			ts.SetAttrs(span.Int("events", int64(r.Trace.Events())))
		}
	}
	return r.Trace, r.Stats, err
}

// replayEventBounds buckets per-replay event counts (one observation
// per replay pass) for the specctrl_replay_events histogram.
var replayEventBounds = []float64{1e4, 1e5, 1e6, 3e6, 1e7, 3e7, 1e8}

// replayConfs replays ests against the pair's recorded trace and
// returns the per-estimator statistics plus the base run's stats.
func (p Params) replayConfs(w workload.Workload, spec PredictorSpec, ests []conf.Estimator) ([]pipeline.ConfStats, *pipeline.Stats, error) {
	tr, base, err := p.traceFor(w, spec)
	if err != nil {
		return nil, nil, err
	}
	var rs *span.Span
	if p.Tracer != nil {
		rs = p.Tracer.Child(p.SpanParent, "replay",
			span.Str("workload", w.Name), span.Str("predictor", spec.Name),
			span.Int("estimators", int64(len(ests))))
	}
	confs := replay.Replay(tr, ests)
	if rs != nil {
		rs.SetAttrs(span.Int("events", int64(tr.Events())))
		rs.End()
	}
	if p.Obs != nil {
		p.Obs.Histogram("specctrl_replay_events", obs.Labels{"predictor": spec.Name}, replayEventBounds).
			Observe(float64(tr.Events()))
	}
	return confs, base, nil
}

// replayStats assembles the Stats a direct simulation with confs'
// estimators attached would have produced: the base run's
// estimator-independent fields, the replayed per-estimator statistics,
// and — because the simulator mirrors the *first* estimator's quadrants
// into Stats.CommittedQ/AllQ — the first replayed quadrants in place of
// the base run's.
func replayStats(base *pipeline.Stats, confs []pipeline.ConfStats) *pipeline.Stats {
	st := *base
	st.Confidence = confs
	if len(confs) > 0 {
		st.AllQ = confs[0].AllQ
		st.CommittedQ = confs[0].CommittedQ
	}
	return &st
}

// evalEstimators is the replay-aware equivalent of
// runOne(w, spec, false, ests...): grid cells that only need Stats for
// a fixed estimator list call it and transparently share one recorded
// simulation per (workload, predictor) across cells and experiments.
func (p Params) evalEstimators(w workload.Workload, spec PredictorSpec, ests ...conf.Estimator) (*pipeline.Stats, error) {
	if !p.replayActive() {
		return p.runOne(w, spec, false, ests...)
	}
	confs, base, err := p.replayConfs(w, spec, ests)
	if err != nil {
		return nil, err
	}
	return replayStats(base, confs), nil
}

// replayBatch is how many estimator configurations one replay cell
// drives per pass over the trace. One pass is a sequential scan of the
// recording (a few MB per million branches); batching amortizes it
// across several estimators while keeping each batch's table working
// set cache-resident, and bounds the sweep's parallel grain: an
// 80-config Fig 4/5 sweep becomes five independent replay cells per
// workload on the runner pool.
const replayBatch = 16

// estsMemo builds one workload's estimator list exactly once per grid,
// shared by that workload's replay-batch cells. Estimator construction
// may itself run a profiling simulation (static, tuned, xinput), which
// must not repeat per batch; construction is deterministic, so sharing
// it preserves the grid's determinism contract even though the memo is
// state shared between cells.
type estsMemo struct {
	once sync.Once
	es   []conf.Estimator
	err  error
}

// namedStatsReplay is namedStats' replay-backed grid: per named
// workload, one "#record" cell that records (or cache-hits) the trace,
// plus one "#replayLO-HI" cell per estimator batch. The batch bounds
// are part of the cell key, so cached cells can never alias across a
// change of replayBatch. Assembly splices the batches' Confidence
// slices back into name order, making the result indistinguishable
// from the direct path's.
func (p Params) namedStatsReplay(experiment string, names []string, spec PredictorSpec, variant string, nEsts int,
	estsFn func(p Params, w workload.Workload) ([]conf.Estimator, error)) ([]*pipeline.Stats, error) {
	nBatches := (nEsts + replayBatch - 1) / replayBatch
	block := 1 + nBatches
	specs := make([]runner.Spec, 0, len(names)*block)
	memos := make(map[string]*estsMemo, len(names))
	for _, name := range names {
		memos[name] = &estsMemo{}
		specs = append(specs, runner.Spec{
			Experiment: experiment, Workload: name, Predictor: spec.Name,
			Variant: variant + "#record",
		})
		for b := 0; b < nBatches; b++ {
			lo := b * replayBatch
			hi := min(lo+replayBatch, nEsts)
			specs = append(specs, runner.Spec{
				Experiment: experiment, Workload: name, Predictor: spec.Name,
				Variant: fmt.Sprintf("%s#replay%d-%d", variant, lo, hi),
			})
		}
	}

	cells, err := p.runGrid(specs, func(_ context.Context, p Params, sp runner.Spec) (CellResult, error) {
		w, err := workload.ByName(sp.Workload)
		if err != nil {
			return CellResult{}, err
		}
		task := sp.Variant[strings.LastIndex(sp.Variant, "#")+1:]
		if task == "record" {
			_, base, err := p.traceFor(w, spec)
			if err != nil {
				return CellResult{}, err
			}
			st := *base
			return CellResult{Stats: &st}, nil
		}
		var lo, hi int
		if _, err := fmt.Sscanf(task, "replay%d-%d", &lo, &hi); err != nil {
			return CellResult{}, fmt.Errorf("experiments: bad replay cell variant %q", sp.Variant)
		}
		m := memos[sp.Workload]
		m.once.Do(func() {
			m.es, m.err = estsFn(p, w)
			if m.err == nil && len(m.es) != nEsts {
				m.err = fmt.Errorf("experiments: %s estimator builder returned %d estimators, specs enumerated %d",
					experiment, len(m.es), nEsts)
			}
		})
		if m.err != nil {
			return CellResult{}, m.err
		}
		confs, _, err := p.replayConfs(w, spec, m.es[lo:hi])
		if err != nil {
			return CellResult{}, err
		}
		return CellResult{Stats: &pipeline.Stats{Confidence: confs}}, nil
	})
	if err != nil {
		return nil, err
	}

	stats := make([]*pipeline.Stats, len(names))
	for i := range names {
		confs := make([]pipeline.ConfStats, 0, nEsts)
		for b := 0; b < nBatches; b++ {
			confs = append(confs, cells[i*block+1+b].Stats.Confidence...)
		}
		stats[i] = replayStats(cells[i*block].Stats, confs)
	}
	return stats, nil
}

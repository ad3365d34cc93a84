// Package replay records branch streams of a pipeline simulation and
// re-evaluates predictors and confidence estimators against the
// recordings without re-running the pipeline. It provides two trace
// tiers, one per reuse boundary, plus a run tier for runs no trace can
// stand in for:
//
//	arch tier    ArchTrace  per workload              (pc, outcome)
//	events tier  Trace      per (workload, predictor) full fetch events
//
// # Events tier
//
// The paper's estimators are passive observers: the simulator calls
// Estimate for every fetched conditional branch (in fetch order) and
// Resolve for every committed branch (in program order, with the
// fetch-time pc/Info/correctness — see the pipeline package's event
// ordering contract). Estimators never influence fetch, timing, or
// prediction, so for a fixed (workload, predictor, pipeline
// configuration) the event stream is identical no matter which
// estimators are attached. Recording that stream once therefore lets
// any number of estimator configurations be evaluated afterwards, in
// parallel, at the cost of a table lookup per event instead of a full
// per-cycle simulation — the standard trace-driven methodology for
// predictor design-space sweeps.
//
// A Trace stores the stream as fixed-size chunks of tokens. A token is
// either a fetch event — carrying the branch pc, the full bpred.Info
// the predictor produced, whether the prediction was correct, and
// whether the branch was on the committed path — or a payload-free
// resolve event. Resolves need no payload because the simulator
// resolves committed branches in fetch order and passes Resolve the
// values captured at fetch: replay keeps a short FIFO of committed
// fetch events and pops it at each resolve token. Fetch payloads are
// columnar (one slice per field) for sequential-scan locality; the
// fetch/resolve interleaving is a per-chunk bitset.
//
// Exactness: Replay reproduces pipeline.Stats.Confidence — the
// per-estimator quadrants and mis-estimation histogram — bit for bit,
// because it feeds the same fetch/resolve sequence with the same
// arguments to the simulator's own estimator fan-out, pipeline.Bank,
// which owns the dispatch, the threshold groups and the statistics
// updates (asserted by differential tests in this package and in
// internal/experiments, and end to end by the results_full.txt
// byte-identity gate in scripts/check.sh). The package drives no
// estimator itself.
//
// # Arch tier
//
// One stage further upstream, an ArchTrace records only the committed
// branch-outcome stream — (pc, taken) per committed conditional branch
// in program order — which is independent of the predictor too, so one
// recording per workload serves every (predictor, estimator)
// combination. ArchReplay re-runs a predictor model over the stream
// (devirtualized fast paths for the paper's three predictors) while
// feeding every branch to a pipeline.Bank, as the events tier does;
// ArchSites derives the per-site accuracy profile
// the static estimator needs. Because the stream carries no timing,
// the arch tier defines a canonical trace-driven evaluation: every
// branch is committed, and every branch resolves immediately after its
// fetch (no resolve lag). The experiments layer routes the experiments
// that consume only committed-branch statistics through this tier and
// guarantees that all three acquisition modes — cached arch trace,
// derivation from an events-tier trace (ArchFromTrace), or a fresh
// recording — produce byte-identical results, because they reconstruct
// the identical stream and share one evaluation loop.
//
// # Run tier
//
// Some runs cannot be replayed at all — a speculation-control policy
// perturbs fetch timing, so its run is not the unpolicied recording —
// but are still asked for more than once: a policied pipeline and its
// unpolicied baseline recur across cells and experiments. Cache
// therefore carries a third tier beside the event traces, Runs: the
// pipeline.Stats of whole simulations, keyed by the experiments
// layer's run address (trace identity plus the complete identity of
// every attached estimator). It shares the event tier's lifetime and
// byte budget (traces and runs count against one maxBytes, each tier
// evicting only its own entries), publishes specctrl_run_* metrics, and
// holds copies without event logs, shared and read-only.
//
// Each trace tier has a binary codec (magics "SPRT" and "SPAT") for
// shipping traces between cluster nodes. All tiers share one cache
// substrate, the generic retained-bytes LRU with singleflight
// recording and an optional Backing; Cache (the event tier, over
// Recording), its Runs (over *pipeline.Stats) and ArchCache (the arch
// tier) differ only in value type, size function and metric prefix.
// The same LRU is exported (NewLRU) as the resident tier of
// serve.Store's decoded cells.
package replay

package runner

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
)

// Spec identifies one independent grid cell. The four name fields form
// the cell's stable identity (Key); Seed is filled in by Run from the
// base seed and that identity.
type Spec struct {
	Experiment string // experiment family, e.g. "table2"
	Workload   string // benchmark name, e.g. "gcc"
	Predictor  string // branch predictor name, e.g. "gshare"
	Variant    string // estimator/config discriminator, e.g. "main"

	// Seed is the cell's private RNG stream, derived by Run as
	// DeriveSeed(baseSeed, Key()). Cells must take any randomness they
	// need from this value and never from process-global state.
	Seed uint64 `json:"-"`
}

// Key returns the stable identity of the spec, used for seed
// derivation, sharding and cross-machine result merging.
func (s Spec) Key() string {
	return s.Experiment + "/" + s.Workload + "/" + s.Predictor + "/" + s.Variant
}

// Cell executes one spec and returns its result. See the package
// comment for the isolation rules a Cell must follow.
type Cell func(ctx context.Context, spec Spec) (any, error)

// Result is the outcome of one cell. Run returns results positionally
// aligned with its input specs.
type Result struct {
	Spec  Spec
	Value any
	Err   error
	Ran   bool // false when skipped: not in this shard, or cancelled first
}

// Options configures a Runner.
type Options struct {
	// Jobs is the worker-pool size. Values <= 1 run serially (a single
	// worker), which is also the reference order for determinism tests.
	Jobs int

	// BaseSeed is the root of every cell's derived seed. Zero selects
	// DefaultBaseSeed so that library callers and the CLI agree.
	BaseSeed uint64

	// Shard restricts execution to every Count-th spec (see Shard).
	// Skipped specs come back with Ran == false.
	Shard Shard

	// Obs, when non-nil, receives the runner's live metrics.
	Obs *obs.Registry

	// Tracer, when non-nil, records per-cell wait and run spans. The
	// nil Tracer disables tracing at the cost of one nil-check per cell.
	Tracer *span.Tracer

	// SpanParent is the span context cell spans are parented under.
	// When invalid (the zero value) and Tracer is set, Run opens its own
	// root span covering the whole grid.
	SpanParent span.Context
}

// cellSecondsBounds buckets specctrl_sim_cell_seconds: cells span
// roughly 1 ms (compress, small grids) to tens of seconds (gcc at full
// trace length).
var cellSecondsBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// DefaultBaseSeed is the published base seed for all experiment grids;
// results_full.txt and EXPERIMENTS.md are generated with it.
const DefaultBaseSeed uint64 = 0x5eedc0de15ca1998

// Runner executes spec grids. Construct with New; a Runner is safe for
// sequential reuse across grids but a single Run call must complete
// before the next begins.
type Runner struct {
	opts Options
}

// New returns a Runner with the given options.
func New(opts Options) *Runner {
	if opts.Jobs < 1 {
		opts.Jobs = 1
	}
	if opts.BaseSeed == 0 {
		opts.BaseSeed = DefaultBaseSeed
	}
	return &Runner{opts: opts}
}

// Run executes every spec owned by this runner's shard and returns one
// Result per input spec, positionally aligned with specs.
//
// On a cell error the runner cancels outstanding work and returns the
// lowest-indexed error among the cells that ran. On context
// cancellation it returns ctx.Err().
// In both cases the partial results are still returned: completed cells
// carry their values and Ran == true.
func (r *Runner) Run(ctx context.Context, specs []Spec, cell Cell) ([]Result, error) {
	if err := r.opts.Shard.Validate(); err != nil {
		return nil, err
	}
	results := make([]Result, len(specs))
	for i := range specs {
		sp := specs[i]
		sp.Seed = DeriveSeed(r.opts.BaseSeed, sp.Key())
		results[i].Spec = sp
	}

	// Shard filter: this machine owns every Count-th spec.
	mine := make([]int, 0, len(specs))
	for i := range specs {
		if r.opts.Shard.Owns(i) {
			mine = append(mine, i)
		}
	}
	jobs := r.opts.Jobs
	if jobs > len(mine) {
		jobs = len(mine)
	}
	if jobs < 1 {
		jobs = 1
	}

	var (
		cellsDone *obs.Counter
		steals    *obs.Counter
		cellHist  *obs.Histogram
	)
	queueGauge := func(int) *obs.Gauge { return nil }
	if reg := r.opts.Obs; reg != nil {
		reg.Gauge("specctrl_runner_workers", nil).SetUint(uint64(jobs))
		cellsDone = reg.Counter("specctrl_runner_cells_total", nil)
		steals = reg.Counter("specctrl_runner_steals_total", nil)
		cellHist = reg.Histogram("specctrl_sim_cell_seconds", nil, cellSecondsBounds)
		queueGauge = func(w int) *obs.Gauge {
			return reg.Gauge("specctrl_runner_queue_depth", obs.Labels{"worker": strconv.Itoa(w)})
		}
	}

	// Span parent for this grid: the caller's, or a private root so a
	// bare traced Run still yields a coherent trace.
	tr := r.opts.Tracer
	parent := r.opts.SpanParent
	var enqueued time.Time
	if tr != nil {
		if !parent.Valid() {
			runSpan := tr.Root("run")
			parent = runSpan.Context()
			defer runSpan.End()
		}
		enqueued = time.Now()
	}

	// Deal cells round-robin in workload-rank order (see dealOrder), so
	// each worker starts with a spread of workloads and every
	// workload's first cell starts before any workload's second.
	deques := make([]*deque, jobs)
	for w := range deques {
		deques[w] = &deque{gauge: queueGauge(w)}
	}
	for k, i := range dealOrder(specs, mine) {
		deques[k%jobs].push(i)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errMu    sync.Mutex
		errIdx   = -1
		firstErr error
	)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for runCtx.Err() == nil {
				stolen := false
				i, ok := deques[w].pop()
				if !ok {
					victim, ok := stealInto(deques, w)
					if !ok {
						return
					}
					if steals != nil {
						steals.Inc()
					}
					i, stolen = victim, true
				}
				cellCtx := runCtx
				var cellSpan *span.Span
				var started time.Time
				if tr != nil || cellHist != nil {
					started = time.Now()
				}
				if tr != nil {
					key := results[i].Spec.Key()
					// Queue-wait phase, backdated to enqueue, on the
					// worker's queue track.
					ws := tr.Child(parent, "wait:"+key,
						span.Int(span.TIDAttr, int64(1000+w+1)),
						span.Str(span.ThreadAttr, "queue "+strconv.Itoa(w)),
						span.Str("key", key))
					ws.Start = enqueued
					ws.EndAt(started)
					// Run phase on the worker's own timeline track; the
					// span rides into the cell so replay/cache layers can
					// hang their phases under it.
					cellSpan = tr.Child(parent, "cell:"+key,
						span.Str("key", key),
						span.Int("worker", int64(w)),
						span.Bool("stolen", stolen),
						span.Int("wait_ns", started.Sub(enqueued).Nanoseconds()),
						span.Int(span.TIDAttr, int64(w+1)),
						span.Str(span.ThreadAttr, "worker "+strconv.Itoa(w)))
					cellSpan.Start = started
					cellCtx = span.NewContext(runCtx, cellSpan)
				}
				v, err := cell(cellCtx, results[i].Spec)
				if tr != nil || cellHist != nil {
					elapsed := time.Since(started)
					if cellSpan != nil {
						if err != nil {
							cellSpan.SetAttrs(span.Str("error", err.Error()))
						}
						cellSpan.End()
					}
					if cellHist != nil {
						cellHist.Observe(elapsed.Seconds())
					}
				}
				results[i].Value = v
				results[i].Err = err
				results[i].Ran = true
				if cellsDone != nil {
					cellsDone.Inc()
				}
				if err != nil {
					errMu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					errMu.Unlock()
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if errIdx >= 0 {
		return results, fmt.Errorf("runner: cell %s: %w", results[errIdx].Spec.Key(), firstErr)
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// dealOrder returns the spec indices in mine (ascending) in the order
// Run deals them: ranked by how many earlier cells in mine share the
// cell's workload, spec order within a rank. The first cell of a
// workload is usually the one that records what its later cells replay
// (a trace, an arch stream), so dealing every workload's first cell
// before any second one starts each recording before the replays that
// wait on it. When every workload has equally many cells and the
// worker count divides the workload count, each worker also replays
// the workloads it recorded. A grid whose cells share one workload
// ranks in spec order, which is the plain round-robin deal.
func dealOrder(specs []Spec, mine []int) []int {
	seen := make(map[string]int)
	var byRank [][]int
	for _, i := range mine {
		r := seen[specs[i].Workload]
		seen[specs[i].Workload] = r + 1
		if r == len(byRank) {
			byRank = append(byRank, nil)
		}
		byRank[r] = append(byRank[r], i)
	}
	order := make([]int, 0, len(mine))
	for _, rank := range byRank {
		order = append(order, rank...)
	}
	return order
}

// stealInto takes work for worker w from the longest other deque,
// moving half of it onto w's deque and returning one index to run.
func stealInto(deques []*deque, w int) (int, bool) {
	for {
		victim, depth := -1, 0
		for v := range deques {
			if v == w {
				continue
			}
			if d := deques[v].depth(); d > depth {
				victim, depth = v, d
			}
		}
		if victim < 0 {
			return 0, false
		}
		batch := deques[victim].stealHalf()
		if len(batch) == 0 {
			continue // raced with the victim draining; look again
		}
		deques[w].push(batch[1:]...)
		return batch[0], true
	}
}

package replay

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"unsafe"

	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
)

// DefaultCacheBytes is the default retained-bytes budget for each
// trace tier's cache. At the default experiment scale a suite trace is
// a few megabytes (~18 B per fetched branch), so 256 MiB comfortably
// holds every (workload, predictor) pair the full experiment grid
// records while still bounding a long-running daemon. Arch traces are
// an order of magnitude smaller (~9 B per committed branch), so the
// same budget holds far more workloads.
const DefaultCacheBytes = 256 << 20

// LRU is the one in-memory, content-addressed cache substrate behind
// every cache tier — the event and arch trace tiers here and the
// decoded cell tier in serve.Store: values of type V keyed by address,
// bounded by retained bytes with least-recently-used eviction.
//
// Recording is deduplicated singleflight-style: concurrent GetOrRecord
// calls for one address run the record function exactly once, and every
// waiter shares the outcome (or gives up when its own context ends).
// Errors are not cached; the next call retries.
//
// Eviction only ever costs time, never correctness: a caller that
// misses re-records the value from the deterministic simulation, so a
// budget smaller than the working set degrades to direct-simulation
// speed rather than misbehaving. Values are shared and must be treated
// as immutable.
//
// An LRU built by newSiblingLRU charges its entries against another
// LRU's budget: the two share one retained-bytes total, and an insert
// into either evicts from its own tail until the total fits again.
type LRU[V any] struct {
	mu      sync.Mutex
	max     int64
	bytes   int64         // this LRU's own entries
	budget  *atomic.Int64 // bytes charged against max, shared with siblings
	size    func(V) int64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	flights map[string]*flight[V]
	backing Backing[V]

	records, hits, fetches, evictions, waits *obs.Counter
	gauge                                    *obs.Gauge
}

// entry is one resident value; the lru list owns these.
type entry[V any] struct {
	addr  string
	val   V
	bytes int64
}

// flight is one in-progress recording; followers wait on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Backing is an optional second-level store behind an LRU — typically
// a cluster coordinator's tier reached over HTTP. On a local miss the
// cache consults Fetch before recording; after a successful recording
// it offers the value to Store. Both calls are best-effort: Fetch
// returning false and Store failing silently only cost a re-recording,
// never correctness, because the value is a deterministic function of
// its address.
//
// Implementations must be safe for concurrent use. The values
// exchanged are shared and treated as immutable, matching the cache's
// own contract.
type Backing[V any] interface {
	// Fetch returns the value stored under addr, reporting whether the
	// backing tier had it.
	Fetch(addr string) (V, bool)
	// Store offers a freshly recorded value to the backing tier.
	Store(addr string, v V)
}

// NewLRU returns a cache holding at most maxBytes (DefaultCacheBytes
// when maxBytes <= 0), charging size(v) per entry. When reg is non-nil
// the cache publishes <prefix>_{records,hits,fetches,evictions}_total,
// <prefix>_waits_total (callers that waited on another caller's
// in-flight recording) and the <prefix>_cache_bytes gauge.
func NewLRU[V any](maxBytes int64, reg *obs.Registry, prefix string, size func(V) int64) *LRU[V] {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return newLRU(maxBytes, new(atomic.Int64), reg, prefix, size)
}

// newSiblingLRU returns a cache that charges its entries against
// owner's budget (see LRU): owner's maxBytes bounds the two together.
func newSiblingLRU[V, W any](owner *LRU[W], reg *obs.Registry, prefix string, size func(V) int64) *LRU[V] {
	return newLRU(owner.max, owner.budget, reg, prefix, size)
}

func newLRU[V any](maxBytes int64, budget *atomic.Int64, reg *obs.Registry, prefix string, size func(V) int64) *LRU[V] {
	c := &LRU[V]{
		max:     maxBytes,
		budget:  budget,
		size:    size,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*flight[V]),
	}
	if reg != nil {
		c.records = reg.Counter(prefix+"_records_total", nil)
		c.hits = reg.Counter(prefix+"_hits_total", nil)
		c.fetches = reg.Counter(prefix+"_fetches_total", nil)
		c.evictions = reg.Counter(prefix+"_evictions_total", nil)
		c.waits = reg.Counter(prefix+"_waits_total", nil)
		c.gauge = reg.Gauge(prefix+"_cache_bytes", nil)
	}
	return c
}

// SetBacking installs (or clears, with nil) the cache's second-level
// store. Safe to call concurrently with cache use; values already
// resident are unaffected.
func (c *LRU[V]) SetBacking(b Backing[V]) {
	c.mu.Lock()
	c.backing = b
	c.mu.Unlock()
}

// Bytes returns the currently retained byte count.
func (c *LRU[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of resident values.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Outcome classifies how GetOrRecordOutcome satisfied a request, for
// tracing and reporting.
type Outcome string

const (
	// OutcomeHit: the value was resident in the cache.
	OutcomeHit Outcome = "hit"
	// OutcomeRecord: this call ran the record function.
	OutcomeRecord Outcome = "record"
	// OutcomeWait: another caller was already recording; this call
	// waited for that flight and shared its result.
	OutcomeWait Outcome = "wait"
	// OutcomeFetch: the value came from the backing tier (another
	// node's recording) instead of a local recording.
	OutcomeFetch Outcome = "fetch"
)

// GetOrRecord returns the value cached under addr, running record to
// produce it on a miss.
func (c *LRU[V]) GetOrRecord(ctx context.Context, addr string, record func() (V, error)) (V, error) {
	v, _, err := c.GetOrRecordOutcome(ctx, addr, record)
	return v, err
}

// GetOrRecordOutcome is GetOrRecord plus a report of how the request
// was satisfied: a resident hit, a fresh recording, a wait on another
// caller's in-flight recording, or a fetch from the backing tier.
//
// ctx bounds only the wait: a caller that finds another's recording in
// flight returns ctx.Err() (with OutcomeWait) once ctx is done, while
// the recording runs on for its own caller. A nil ctx never ends. The
// record function itself is not handed ctx; it closes over whatever
// context its caller wants it to honour.
func (c *LRU[V]) GetOrRecordOutcome(ctx context.Context, addr string, record func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[addr]; ok {
		c.lru.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		c.mu.Unlock()
		inc(c.hits)
		return v, OutcomeHit, nil
	}
	if f, ok := c.flights[addr]; ok {
		c.mu.Unlock()
		inc(c.waits)
		var cancelled <-chan struct{}
		if ctx != nil {
			cancelled = ctx.Done()
		}
		select {
		case <-f.done:
		case <-cancelled:
			var zero V
			return zero, OutcomeWait, ctx.Err()
		}
		if f.err == nil {
			inc(c.hits)
		}
		return f.val, OutcomeWait, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[addr] = f
	backing := c.backing
	c.mu.Unlock()

	outcome := OutcomeRecord
	if backing != nil {
		if v, ok := backing.Fetch(addr); ok {
			f.val = v
			outcome = OutcomeFetch
		}
	}
	if outcome != OutcomeFetch {
		f.val, f.err = record()
	}

	c.mu.Lock()
	delete(c.flights, addr)
	if f.err == nil {
		c.insertLocked(addr, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	if f.err == nil {
		switch outcome {
		case OutcomeFetch:
			inc(c.fetches)
		case OutcomeRecord:
			inc(c.records)
			if backing != nil {
				// Best-effort write-through: a recording made here
				// becomes every other node's fetch hit.
				backing.Store(addr, f.val)
			}
		}
	}
	return f.val, outcome, f.err
}

// Get returns the value resident under addr without recording on a
// miss and without consulting the backing tier. It counts as a use for
// LRU purposes but not as a hit in the metrics.
func (c *LRU[V]) Get(addr string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[addr]
	if !ok {
		var zero V
		return zero, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put inserts a value produced elsewhere (e.g. uploaded by a cluster
// worker) under addr, subject to the usual LRU budget. An existing
// entry is left in place: the value at an address is deterministic, so
// first write wins and the duplicate is dropped.
func (c *LRU[V]) Put(addr string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[addr]; ok {
		return
	}
	c.insertLocked(addr, v)
}

// insertLocked adds an entry and evicts from the LRU tail until the
// budget holds again. A value larger than the whole budget is evicted
// immediately after insertion — the caller already holds it, so the
// only cost is that the next request re-records. A sibling's entries
// are never evicted here; the sibling evicts its own on its inserts.
func (c *LRU[V]) insertLocked(addr string, v V) {
	e := &entry[V]{addr: addr, val: v, bytes: c.size(v)}
	c.entries[addr] = c.lru.PushFront(e)
	c.bytes += e.bytes
	c.budget.Add(e.bytes)
	for c.budget.Load() > c.max {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		victim := c.lru.Remove(tail).(*entry[V])
		delete(c.entries, victim.addr)
		c.bytes -= victim.bytes
		c.budget.Add(-victim.bytes)
		inc(c.evictions)
	}
	if c.gauge != nil {
		c.gauge.SetUint(uint64(c.bytes))
	}
}

// inc bumps a counter that is nil when the cache has no registry.
func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Recording is the event tier's cached value: a recorded trace plus
// the base Stats of the run that recorded it. Both are shared and
// immutable (Replay never mutates its trace; callers clone the stats
// before modifying them).
type Recording struct {
	Trace *Trace
	Stats *pipeline.Stats
}

// StatsFootprint approximates the retained size of one pipeline.Stats
// without estimators (fixed-size histograms and quadrant counters) for
// budget accounting.
const StatsFootprint = 4096

// confFootprint is the retained size of one estimator's ConfStats: its
// quadrants and mis-estimation distance histogram.
const confFootprint = int64(unsafe.Sizeof(pipeline.ConfStats{}))

// siteFootprint is the retained size of one Stats.Sites entry: its
// key, its pointer and the SiteStats it points to.
const siteFootprint = int64(unsafe.Sizeof(int64(0)) + unsafe.Sizeof(&pipeline.SiteStats{}) + unsafe.Sizeof(pipeline.SiteStats{}))

// StatsBytes approximates the retained size of st for budget
// accounting: StatsFootprint plus one ConfStats per attached
// estimator, which dominates for an estimator sweep's run, plus one
// site entry per profiled branch site.
func StatsBytes(st *pipeline.Stats) int64 {
	return StatsFootprint + int64(len(st.Confidence))*confFootprint + int64(len(st.Sites))*siteFootprint
}

// Cache is the event tier: recorded speculative-event traces keyed by
// TraceAddress. It is the generic LRU over Recording, with a Get that
// unpacks the pair.
//
// Beside the traces it carries the run tier, Runs: the Stats of whole
// simulations keyed by the experiments' RunAddress, so a run that two
// cells or two experiments need (a policied pipeline and its
// unpolicied baseline) is simulated once per cache lifetime. The run
// tier shares the event tier's lifetime and scope — one per process,
// server or perfbench pass — and its byte budget: each run is charged
// StatsBytes against the same maxBytes that bounds the traces.
type Cache struct {
	*LRU[Recording]
	Runs *LRU[*pipeline.Stats]
}

// NewCache returns an event-tier cache holding at most maxBytes of
// traces and runs together (DefaultCacheBytes when maxBytes <= 0),
// publishing the specctrl_trace_* and specctrl_run_* metrics when reg
// is non-nil.
func NewCache(maxBytes int64, reg *obs.Registry) *Cache {
	traces := NewLRU(maxBytes, reg, "specctrl_trace", func(r Recording) int64 {
		return int64(r.Trace.Bytes()) + StatsBytes(r.Stats)
	})
	return &Cache{LRU: traces, Runs: newSiblingLRU(traces, reg, "specctrl_run", StatsBytes)}
}

// Get returns the trace and base stats resident under addr; see
// LRU.Get.
func (c *Cache) Get(addr string) (*Trace, *pipeline.Stats, bool) {
	r, ok := c.LRU.Get(addr)
	return r.Trace, r.Stats, ok
}

// ArchCache is the arch tier: committed branch-outcome streams keyed
// by ArchTraceAddress. It carries no stats sidecar — the
// committed-instruction count rides inside the ArchTrace.
type ArchCache = LRU[*ArchTrace]

// NewArchCache returns an arch-tier cache holding at most maxBytes
// (DefaultCacheBytes when maxBytes <= 0), publishing the
// specctrl_archtrace_* metrics when reg is non-nil.
func NewArchCache(maxBytes int64, reg *obs.Registry) *ArchCache {
	return NewLRU(maxBytes, reg, "specctrl_archtrace", func(t *ArchTrace) int64 {
		return int64(t.Bytes())
	})
}

package replay

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
)

// The cache tests below are written once against the generic LRU and
// run against both tiers: TestCacheX exercises the event tier and
// TestArchCacheX the arch tier.

// tier adapts one cache tier to the shared tests.
type tier[V comparable] struct {
	prefix string // metric prefix
	new    func(int64, *obs.Registry) *LRU[V]
	value  func(n int) V // a synthetic value of about n branches
}

var eventTier = tier[Recording]{
	prefix: "specctrl_trace",
	new:    func(max int64, reg *obs.Registry) *LRU[Recording] { return NewCache(max, reg).LRU },
	value: func(n int) Recording {
		return Recording{recordSynthetic(n), &pipeline.Stats{Committed: uint64(n)}}
	},
}

var archTier = tier[*ArchTrace]{
	prefix: "specctrl_archtrace",
	new:    NewArchCache,
	value:  archSynthetic,
}

// recorder returns a record func producing a fresh synthetic value of
// size n, counting invocations.
func (h tier[V]) recorder(calls *atomic.Int64, n int) func() (V, error) {
	return func() (V, error) {
		calls.Add(1)
		return h.value(n), nil
	}
}

// fakeBacking is an in-memory Backing with call counters, standing in
// for a cluster coordinator's tier.
type fakeBacking[V any] struct {
	mu      sync.Mutex
	vals    map[string]V
	fetches atomic.Int64
	stores  atomic.Int64
}

func (b *fakeBacking[V]) Fetch(addr string) (V, bool) {
	b.fetches.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.vals[addr]
	return v, ok
}

func (b *fakeBacking[V]) Store(addr string, v V) {
	b.stores.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.vals[addr] = v
}

// metricsDump flattens a registry snapshot into name → value (summing
// across label sets; the cache metrics are unlabelled).
func metricsDump(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range reg.Snapshot() {
		out[m.Name] += m.Value
	}
	return out
}

// Hit: the second request for an address returns the first's result
// without recording again.
func TestCacheHit(t *testing.T)     { testHit(t, eventTier) }
func TestArchCacheHit(t *testing.T) { testHit(t, archTier) }

func testHit[V comparable](t *testing.T, h tier[V]) {
	c := h.new(0, nil)
	var calls atomic.Int64
	v1, err := c.GetOrRecord(context.Background(), "a", h.recorder(&calls, 100))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.GetOrRecord(context.Background(), "a", h.recorder(&calls, 100))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("recorded %d times, want 1", calls.Load())
	}
	if v1 != v2 {
		t.Fatal("hit returned a different value than the recording")
	}
	if c.Len() != 1 || c.Bytes() <= 0 {
		t.Fatalf("Len=%d Bytes=%d after one insert", c.Len(), c.Bytes())
	}
}

// Singleflight: concurrent requests for one address record once;
// everyone gets the same value.
func TestCacheSingleflight(t *testing.T)     { testSingleflight(t, eventTier) }
func TestArchCacheSingleflight(t *testing.T) { testSingleflight(t, archTier) }

func testSingleflight[V comparable](t *testing.T, h tier[V]) {
	c := h.new(0, nil)
	var calls atomic.Int64
	gate := make(chan struct{})
	record := func() (V, error) {
		calls.Add(1)
		<-gate // hold the flight open until all goroutines have queued
		return h.value(50), nil
	}

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]V, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrRecord(context.Background(), "addr", record)
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let the flight's followers pile up, then release the recording.
	for calls.Load() == 0 {
	}
	close(gate)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("recorded %d times under contention, want 1", calls.Load())
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatal("waiters received different values")
		}
	}
}

// RecordError: a failed recording is not cached and does not wedge the
// flight — the next caller retries.
func TestCacheRecordError(t *testing.T)     { testRecordError(t, eventTier) }
func TestArchCacheRecordError(t *testing.T) { testRecordError(t, archTier) }

func testRecordError[V comparable](t *testing.T, h tier[V]) {
	c := h.new(0, nil)
	boom := errors.New("boom")
	if _, err := c.GetOrRecord(context.Background(), "a", func() (V, error) {
		var zero V
		return zero, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the recording error", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed recording was cached")
	}
	var calls atomic.Int64
	if _, err := c.GetOrRecord(context.Background(), "a", h.recorder(&calls, 10)); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatal("retry did not re-record")
	}
}

// LRUEviction: inserts beyond the byte budget evict the least recently
// used entries, and the tier's metrics see every step.
func TestCacheLRUEviction(t *testing.T)     { testLRUEviction(t, eventTier) }
func TestArchCacheLRUEviction(t *testing.T) { testLRUEviction(t, archTier) }

func testLRUEviction[V comparable](t *testing.T, h tier[V]) {
	reg := obs.NewRegistry()
	// Budget two synthetic values, not three.
	one := h.new(0, nil).size(h.value(5000))
	budget := 2*one + one/2
	c := h.new(budget, reg)

	var calls atomic.Int64
	for _, addr := range []string{"a", "b"} {
		if _, err := c.GetOrRecord(context.Background(), addr, h.recorder(&calls, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, err := c.GetOrRecord(context.Background(), "a", h.recorder(&calls, 5000)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetOrRecord(context.Background(), "c", h.recorder(&calls, 5000)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after eviction, want 2", c.Len())
	}

	// "a" and "c" resident, "b" evicted: re-requesting "b" records anew.
	before := calls.Load()
	for _, addr := range []string{"a", "c"} {
		if _, err := c.GetOrRecord(context.Background(), addr, h.recorder(&calls, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != before {
		t.Fatal("resident entries re-recorded")
	}
	if _, err := c.GetOrRecord(context.Background(), "b", h.recorder(&calls, 5000)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Fatal("evicted entry did not re-record")
	}
	if got := c.Bytes(); got > budget {
		t.Fatalf("cache holds %d bytes, over its %d budget", got, budget)
	}

	// The sequence above was: miss a, miss b, hit a, miss c (evict b),
	// hit a, hit c, miss b (evict a) — the counters must agree.
	dump := metricsDump(reg)
	if got := dump[h.prefix+"_records_total"]; got != float64(calls.Load()) {
		t.Errorf("records_total = %v, want %d", got, calls.Load())
	}
	if got := dump[h.prefix+"_hits_total"]; got != 3 {
		t.Errorf("hits_total = %v, want 3", got)
	}
	if got := dump[h.prefix+"_evictions_total"]; got != 2 {
		t.Errorf("evictions_total = %v, want 2", got)
	}
	if got := dump[h.prefix+"_cache_bytes"]; got != float64(c.Bytes()) {
		t.Errorf("cache_bytes gauge = %v, Bytes() = %d", got, c.Bytes())
	}
}

// DefaultBudget: a zero or negative budget selects the package default.
func TestCacheDefaultBudget(t *testing.T)     { testDefaultBudget(t, eventTier) }
func TestArchCacheDefaultBudget(t *testing.T) { testDefaultBudget(t, archTier) }

func testDefaultBudget[V comparable](t *testing.T, h tier[V]) {
	if c := h.new(0, nil); c.max != DefaultCacheBytes {
		t.Fatalf("zero budget gave max=%d, want DefaultCacheBytes", c.max)
	}
	if c := h.new(-5, nil); c.max != DefaultCacheBytes {
		t.Fatal("negative budget did not select the default")
	}
}

// ManyAddresses smoke-tests churn well past the budget.
func TestCacheManyAddresses(t *testing.T)     { testManyAddresses(t, eventTier) }
func TestArchCacheManyAddresses(t *testing.T) { testManyAddresses(t, archTier) }

func testManyAddresses[V comparable](t *testing.T, h tier[V]) {
	one := h.new(0, nil).size(h.value(1000))
	c := h.new(3*one, nil)
	var calls atomic.Int64
	for i := 0; i < 20; i++ {
		if _, err := c.GetOrRecord(context.Background(), fmt.Sprint("w", i%7), h.recorder(&calls, 1000)); err != nil {
			t.Fatal(err)
		}
		if c.Len() > 3 {
			t.Fatalf("cache grew to %d entries over its 3-entry budget", c.Len())
		}
	}
}

// BackingFetch: a local miss that the backing tier can serve comes back
// as OutcomeFetch, without running the record function, and becomes
// resident (the next call is a plain hit).
func TestCacheBackingFetch(t *testing.T)     { testBackingFetch(t, eventTier) }
func TestArchCacheBackingFetch(t *testing.T) { testBackingFetch(t, archTier) }

func testBackingFetch[V comparable](t *testing.T, h tier[V]) {
	reg := obs.NewRegistry()
	remote := h.value(80)
	b := &fakeBacking[V]{vals: map[string]V{"a": remote}}
	c := h.new(0, reg)
	c.SetBacking(b)
	var calls atomic.Int64
	v, outcome, err := c.GetOrRecordOutcome(context.Background(), "a", h.recorder(&calls, 80))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeFetch {
		t.Fatalf("outcome %s, want fetch", outcome)
	}
	if calls.Load() != 0 {
		t.Fatalf("record ran %d times on a backing hit", calls.Load())
	}
	if v != remote {
		t.Fatal("fetch returned a different value than the backing tier holds")
	}
	// Resident now: no second Fetch.
	if _, outcome, err = c.GetOrRecordOutcome(context.Background(), "a", h.recorder(&calls, 80)); err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeHit {
		t.Fatalf("second outcome %s, want hit", outcome)
	}
	if b.fetches.Load() != 1 {
		t.Fatalf("backing fetched %d times, want 1", b.fetches.Load())
	}
	dump := metricsDump(reg)
	if got := dump[h.prefix+"_fetches_total"]; got != 1 {
		t.Errorf("fetches_total = %v, want 1", got)
	}
	if got := dump[h.prefix+"_hits_total"]; got != 1 {
		t.Errorf("hits_total = %v, want 1", got)
	}
}

// BackingWriteThrough: a fresh local recording is offered to the
// backing tier, and a backing miss falls through to recording.
func TestCacheBackingWriteThrough(t *testing.T)     { testBackingWriteThrough(t, eventTier) }
func TestArchCacheBackingWriteThrough(t *testing.T) { testBackingWriteThrough(t, archTier) }

func testBackingWriteThrough[V comparable](t *testing.T, h tier[V]) {
	b := &fakeBacking[V]{vals: map[string]V{}}
	c := h.new(0, nil)
	c.SetBacking(b)
	var calls atomic.Int64
	v, outcome, err := c.GetOrRecordOutcome(context.Background(), "a", h.recorder(&calls, 60))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeRecord {
		t.Fatalf("outcome %s, want record", outcome)
	}
	if calls.Load() != 1 {
		t.Fatalf("record ran %d times, want 1", calls.Load())
	}
	if b.stores.Load() != 1 {
		t.Fatalf("write-through stored %d times, want 1", b.stores.Load())
	}
	b.mu.Lock()
	stored, ok := b.vals["a"]
	b.mu.Unlock()
	if !ok || stored != v {
		t.Fatal("recorded value missing from the backing tier")
	}
}

// FollowerCancel: a caller waiting on another's in-flight recording
// returns context.Canceled as soon as its own ctx ends, while the
// recording runs on for its leader and lands in the cache.
func TestCacheFollowerCancel(t *testing.T)     { testFollowerCancel(t, eventTier) }
func TestArchCacheFollowerCancel(t *testing.T) { testFollowerCancel(t, archTier) }

func testFollowerCancel[V comparable](t *testing.T, h tier[V]) {
	c := h.new(0, nil)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan V, 1)
	go func() {
		v, err := c.GetOrRecord(context.Background(), "a", func() (V, error) {
			calls.Add(1)
			close(started)
			<-release
			return h.value(50), nil
		})
		if err != nil {
			t.Error(err)
		}
		leader <- v
	}()
	<-started // the leader is recording; the follower must join it

	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() {
		_, outcome, err := c.GetOrRecordOutcome(ctx, "a", h.recorder(&calls, 50))
		if outcome != OutcomeWait {
			t.Errorf("follower outcome %s, want wait", outcome)
		}
		waited <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the follower park on the flight
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower got %v, want context.Canceled", err)
	}

	close(release)
	v := <-leader
	if got, ok := c.Get("a"); !ok || got != v {
		t.Fatal("the leader's recording did not land after the follower left")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("recorded %d times, want 1", n)
	}
}

// Waits: every caller that joins another's in-flight recording counts
// one wait, whether or not it stays for the result; resident hits and
// the recording itself count none.
func TestCacheWaits(t *testing.T)     { testWaits(t, eventTier) }
func TestArchCacheWaits(t *testing.T) { testWaits(t, archTier) }

func testWaits[V comparable](t *testing.T, h tier[V]) {
	reg := obs.NewRegistry()
	c := h.new(0, reg)
	waits := reg.Counter(h.prefix+"_waits_total", nil)
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.GetOrRecord(context.Background(), "a", func() (V, error) {
			calls.Add(1)
			close(started)
			<-release
			return h.value(50), nil
		})
	}()
	<-started
	const followers = 5
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, outcome, err := c.GetOrRecordOutcome(context.Background(), "a", h.recorder(&calls, 50)); err != nil || outcome != OutcomeWait {
				t.Errorf("follower: outcome %s, err %v; want wait, nil", outcome, err)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); waits.Value() < followers; {
		if time.Now().After(deadline) {
			t.Fatalf("waits = %d after 5s, want %d", waits.Value(), followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	c.GetOrRecord(context.Background(), "a", h.recorder(&calls, 50)) // resident hit
	c.GetOrRecord(context.Background(), "b", h.recorder(&calls, 50)) // fresh recording
	m := metricsDump(reg)
	if m[h.prefix+"_waits_total"] != followers || m[h.prefix+"_records_total"] != 2 || calls.Load() != 2 {
		t.Fatalf("waits %v, records %v, record calls %d; want %d, 2, 2",
			m[h.prefix+"_waits_total"], m[h.prefix+"_records_total"], calls.Load(), followers)
	}
}

// GetPut: Get peeks without recording; Put inserts a worker-uploaded
// value and leaves an existing entry alone (first write wins — the
// value at an address is deterministic).
func TestCacheGetPut(t *testing.T) {
	testGetPut(t, eventTier)
	// Cache.Get unpacks the Recording into the (trace, stats) pair.
	c := NewCache(0, nil)
	r := eventTier.value(40)
	c.Put("a", r)
	if tr, st, ok := c.Get("a"); !ok || tr != r.Trace || st != r.Stats {
		t.Fatal("Cache.Get did not return the Put trace and stats")
	}
}
func TestArchCacheGetPut(t *testing.T) { testGetPut(t, archTier) }

func testGetPut[V comparable](t *testing.T, h tier[V]) {
	c := h.new(0, nil)
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get hit an empty cache")
	}
	first := h.value(40)
	c.Put("a", first)
	if v, ok := c.Get("a"); !ok || v != first {
		t.Fatal("Get did not return the Put value")
	}
	// A duplicate Put must not replace the resident entry.
	c.Put("a", h.value(40))
	if v, _ := c.Get("a"); v != first {
		t.Fatal("duplicate Put replaced the resident value")
	}
	if c.Len() != 1 {
		t.Fatalf("Len=%d after duplicate Put, want 1", c.Len())
	}
}

// TestRunTierSharesTraceBudget: the run tier is charged StatsBytes per
// run (one ConfStats per estimator and one entry per profiled branch
// site on top of the fixed footprint)
// against the event tier's budget, so maxBytes bounds traces and runs
// together, and each tier evicts only its own entries.
func TestRunTierSharesTraceBudget(t *testing.T) {
	run := &pipeline.Stats{Confidence: make([]pipeline.ConfStats, 80)}
	if got, want := StatsBytes(run), int64(StatsFootprint)+80*confFootprint; got != want || confFootprint < 1024 {
		t.Fatalf("StatsBytes = %d, want %d (ConfStats %d B)", got, want, confFootprint)
	}
	if StatsBytes(&pipeline.Stats{}) != StatsFootprint {
		t.Fatal("an estimator-free run is not charged StatsFootprint")
	}
	profiled := &pipeline.Stats{Sites: map[int64]*pipeline.SiteStats{1: {}, 2: {}, 3: {}}}
	if got, want := StatsBytes(profiled), int64(StatsFootprint)+3*siteFootprint; got != want || siteFootprint < 32 {
		t.Fatalf("profiling run: StatsBytes = %d, want %d (site %d B)", got, want, siteFootprint)
	}

	rec := eventTier.value(400)
	recBytes := int64(rec.Trace.Bytes()) + StatsBytes(rec.Stats)
	max := recBytes + 2*StatsBytes(run) + recBytes/2
	c := NewCache(max, nil)
	c.Put("trace", rec)
	for i := 0; i < 4; i++ {
		c.Runs.Put(fmt.Sprint("run", i), run)
		if total := c.Bytes() + c.Runs.Bytes(); total > max {
			t.Fatalf("after run %d: traces %d + runs %d > budget %d", i, c.Bytes(), c.Runs.Bytes(), max)
		}
	}
	if _, _, ok := c.Get("trace"); !ok {
		t.Fatal("a run insert evicted the event tier's trace")
	}
	if n := c.Runs.Len(); n != 2 {
		t.Fatalf("run tier holds %d runs beside the trace, want 2", n)
	}
	// A trace insert that no longer fits evicts the older trace, not runs.
	c.Put("trace2", eventTier.value(400))
	if _, _, ok := c.Get("trace"); ok {
		t.Fatal("older trace survived an over-budget trace insert")
	}
	if n := c.Runs.Len(); n != 2 {
		t.Fatalf("trace insert evicted runs: %d left, want 2", n)
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
	"specctrl/internal/replay"
)

// addr returns a syntactically valid content address for tests.
func testAddr(tag string) string {
	return strings.Repeat("0", 64-len(tag)) + tag
}

func testCell(v float64) experiments.CellResult {
	return experiments.CellResult{
		Stats: &pipeline.Stats{},
		Extra: map[string]float64{"v": v},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("aa")
	computes := 0
	compute := func(context.Context) (experiments.CellResult, error) {
		computes++
		return testCell(42), nil
	}
	c1, err := s.GetOrCompute(context.Background(), addr, compute)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.GetOrCompute(context.Background(), addr, compute)
	if err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Errorf("computed %d times, want 1", computes)
	}
	if c1.Extra["v"] != 42 || c2.Extra["v"] != 42 {
		t.Errorf("results: %v %v", c1, c2)
	}
	if h := reg.Counter("specctrl_serve_cache_hits_total", nil).Value(); h != 1 {
		t.Errorf("hits = %d, want 1", h)
	}
	if m := reg.Counter("specctrl_serve_cache_misses_total", nil).Value(); m != 1 {
		t.Errorf("misses = %d, want 1", m)
	}

	// A second store over the same directory sees the entry (the cache
	// is a plain content-addressed directory, shareable across
	// processes).
	s2, err := NewStore(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Lookup(addr); !ok {
		t.Error("second store over same dir misses the entry")
	}
}

// TestStoreSingleflight is the dedup guarantee: N concurrent requests
// for one address run compute exactly once and all see its result.
func TestStoreSingleflight(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("bb")
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(context.Context) (experiments.CellResult, error) {
		computes.Add(1)
		close(started)
		<-release
		return testCell(7), nil
	}

	const followers = 8
	var wg sync.WaitGroup
	results := make([]experiments.CellResult, followers+1)
	errs := make([]error, followers+1)
	wg.Add(1)
	go func() { defer wg.Done(); results[0], errs[0] = s.GetOrCompute(context.Background(), addr, compute) }()
	<-started // leader is inside compute; everyone else must join it
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.GetOrCompute(context.Background(), addr, compute)
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let followers park on the flight
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
		if results[i].Extra["v"] != 7 {
			t.Errorf("caller %d result: %v", i, results[i])
		}
	}
	if d := reg.Counter("specctrl_serve_cache_dedup_total", nil).Value(); d != followers {
		t.Errorf("dedup = %d, want %d", d, followers)
	}
}

func TestStoreErrorNotCached(t *testing.T) {
	s, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("cc")
	boom := errors.New("boom")
	if _, err := s.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) {
			return experiments.CellResult{}, boom
		}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// The failure must not poison the address.
	c, err := s.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) { return testCell(1), nil })
	if err != nil || c.Extra["v"] != 1 {
		t.Errorf("retry after error: %v, %v", c, err)
	}
}

// TestStoreCorruptEntryRecomputed: a corrupt file is a miss that
// recomputes and repairs the entry. The corrupt file is read through a
// fresh store over the same directory, because a resident entry is by
// design never re-read from disk.
func TestStoreCorruptEntryRecomputed(t *testing.T) {
	first, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("dd")
	if _, err := first.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) { return testCell(5), nil }); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first.path(addr), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(first.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) { return testCell(6), nil })
	if err != nil || c.Extra["v"] != 6 {
		t.Fatalf("corrupt entry not recomputed: %v, %v", c, err)
	}
	// And the recompute repaired the entry on disk.
	if c, ok := s.Lookup(addr); !ok || c.Extra["v"] != 6 {
		t.Errorf("entry not repaired: %v %v", c, ok)
	}
	if c, ok := reopen(t, s).Lookup(addr); !ok || c.Extra["v"] != 6 {
		t.Errorf("entry not repaired on disk: %v %v", c, ok)
	}
}

func TestStoreFollowerCancellation(t *testing.T) {
	s, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("ee")
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		s.GetOrCompute(context.Background(), addr,
			func(context.Context) (experiments.CellResult, error) {
				close(started)
				<-release
				return testCell(1), nil
			})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.GetOrCompute(ctx, addr,
		func(context.Context) (experiments.CellResult, error) { return testCell(2), nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled follower got %v, want context.Canceled", err)
	}
	close(release)
	<-leaderDone // the leader writes into TempDir; let it finish before cleanup
}

// reopen returns a fresh store over s's directory: nothing resident,
// so every read goes to disk.
func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	s2, err := NewStore(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s2
}

// mustNotCompute is a compute func for requests the store must satisfy
// without simulating.
func mustNotCompute(t *testing.T) func(context.Context) (experiments.CellResult, error) {
	return func(context.Context) (experiments.CellResult, error) {
		t.Error("compute ran for a stored cell")
		return testCell(-1), nil
	}
}

// TestStoreResidentNoDiskRead: a resident cell is served from memory —
// deleting its file changes nothing for this store.
func TestStoreResidentNoDiskRead(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("a1")
	c1, err := s.GetOrCompute(context.Background(), addr,
		func(context.Context) (experiments.CellResult, error) { return testCell(3), nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.path(addr)); err != nil {
		t.Fatal(err)
	}
	c2, err := s.GetOrCompute(context.Background(), addr, mustNotCompute(t))
	if err != nil {
		t.Fatal(err)
	}
	if c2.Stats != c1.Stats {
		t.Error("resident hit returned a different decoded cell")
	}
	if c, ok := s.Lookup(addr); !ok || c.Stats != c1.Stats {
		t.Errorf("Lookup missed the resident cell: %v %v", c, ok)
	}
	if h := reg.Counter("specctrl_serve_cache_hits_total", nil).Value(); h != 1 {
		t.Errorf("hits = %d, want 1", h)
	}
	if _, ok := reopen(t, s).Lookup(addr); ok {
		t.Error("a fresh store found the deleted file")
	}
}

// TestStoreConcurrentFirstRead: concurrent first requests for a cell
// that is on disk but not resident read and decode the file once, and
// all share that one decoded cell.
func TestStoreConcurrentFirstRead(t *testing.T) {
	writer, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := testAddr("a2")
	if err := writer.Put(addr, testCell(9)); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := NewStore(writer.Dir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]experiments.CellResult, callers)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			c, err := s.GetOrCompute(context.Background(), addr, mustNotCompute(t))
			if err != nil {
				t.Error(err)
			}
			results[i] = c
		}(i)
	}
	close(start)
	wg.Wait()
	if n := reg.Counter("specctrl_cell_records_total", nil).Value(); n != 1 {
		t.Errorf("file read and decoded %d times, want 1", n)
	}
	for i, c := range results {
		if c.Stats != results[0].Stats || c.Extra["v"] != 9 {
			t.Errorf("caller %d got %v, want the one shared decoded cell", i, c)
		}
	}
	hits := reg.Counter("specctrl_serve_cache_hits_total", nil).Value()
	dedup := reg.Counter("specctrl_serve_cache_dedup_total", nil).Value()
	if hits+dedup != callers {
		t.Errorf("hits %d + dedup %d, want %d", hits, dedup, callers)
	}
}

// TestStoreTinyBudget: a budget smaller than one cell evicts every
// entry at once, so each request falls back to the verified disk path
// — slower, never different.
func TestStoreTinyBudget(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := newStore(t.TempDir(), reg, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{testAddr("b1"), testAddr("b2")}
	want := make([][]byte, len(addrs))
	for i, addr := range addrs {
		c, err := s.GetOrCompute(context.Background(), addr,
			func(context.Context) (experiments.CellResult, error) { return testCell(float64(i)), nil })
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(c); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		for i, addr := range addrs {
			c, err := s.GetOrCompute(context.Background(), addr, mustNotCompute(t))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("round %d cell %d: %s, want %s", round, i, got, want[i])
			}
		}
	}
	if n := reg.Counter("specctrl_cell_evictions_total", nil).Value(); n != 6 {
		t.Errorf("evictions = %d, want 6 (every insert)", n)
	}
	if n := reg.Counter("specctrl_cell_records_total", nil).Value(); n != 6 {
		t.Errorf("records = %d, want 6 (2 computes + 4 disk reads)", n)
	}
	if h := reg.Counter("specctrl_serve_cache_hits_total", nil).Value(); h != 4 {
		t.Errorf("hits = %d, want 4", h)
	}
}

// TestStoreEnvelopeVerified: an entry whose payload does not match its
// digest, that names another address, or that is a bare pre-envelope
// cell file is a miss — recomputed, counted as corrupt, and rewritten
// as a valid envelope.
func TestStoreEnvelopeVerified(t *testing.T) {
	writer, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	good, other := testAddr("c1"), testAddr("c2")
	if err := writer.Put(good, testCell(1)); err != nil {
		t.Fatal(err)
	}
	if err := writer.Put(other, testCell(2)); err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(writer.path(good))
	if err != nil {
		t.Fatal(err)
	}
	otherSealed, err := os.ReadFile(writer.path(other))
	if err != nil {
		t.Fatal(err)
	}
	bare, err := json.Marshal(testCell(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"tampered":      bytes.Replace(sealed, []byte(`"v":1`), []byte(`"v":8`), 1),
		"wrong address": otherSealed,
		"bare":          append(bare, '\n'),
		"truncated":     sealed[:len(sealed)-3],
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(writer.path(good), data, 0o644); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			s, err := NewStore(writer.Dir(), reg)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Lookup(good); ok {
				t.Fatal("Lookup accepted an unverified entry")
			}
			computes := 0
			c, err := s.GetOrCompute(context.Background(), good,
				func(context.Context) (experiments.CellResult, error) { computes++; return testCell(1), nil })
			if err != nil || c.Extra["v"] != 1 || computes != 1 {
				t.Fatalf("got %v, %v after %d computes; want a recompute", c, err, computes)
			}
			if n := reg.Counter("specctrl_store_corrupt_total", nil).Value(); n != 2 {
				t.Errorf("corrupt = %d, want 2 (Lookup and GetOrCompute)", n)
			}
			if repaired, err := os.ReadFile(s.path(good)); err != nil || !bytes.Equal(repaired, sealed) {
				t.Errorf("entry not rewritten as its envelope: %s", repaired)
			}
		})
	}
}

// TestCellFootprint: a resident cell is charged for the estimator
// stats it holds (about 1.1 KB of ConfStats per estimator), for its
// headline Stats and each policy-sweep run; an extras-only cell is
// charged one StatsFootprint.
func TestCellFootprint(t *testing.T) {
	conf := int64(unsafe.Sizeof(pipeline.ConfStats{}))
	st := &pipeline.Stats{Confidence: make([]pipeline.ConfStats, 80)}
	if got := cellFootprint(experiments.CellResult{Stats: st}); got < 80*conf {
		t.Errorf("80-estimator cell charged %d B, want >= %d", got, 80*conf)
	}
	withRuns := experiments.CellResult{Stats: st, Runs: []*pipeline.Stats{st, st}}
	if got := cellFootprint(withRuns); got < 3*80*conf {
		t.Errorf("cell with two 80-estimator runs charged %d B, want >= %d", got, 3*80*conf)
	}
	extras := experiments.CellResult{Extra: map[string]float64{"v": 1}}
	if got := cellFootprint(extras); got != replay.StatsFootprint {
		t.Errorf("extras-only cell charged %d B, want %d", got, replay.StatsFootprint)
	}
}

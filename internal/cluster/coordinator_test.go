package cluster

import (
	"strings"
	"testing"
	"time"

	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/policy"
	"specctrl/internal/serve"
)

// newSchedulerOnly boots a coordinator for direct scheduler-method
// tests (no HTTP workers).
func newSchedulerOnly(t *testing.T, mutate func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		Serve: serve.Config{
			Addr:     "127.0.0.1:0",
			CacheDir: t.TempDir(),
			Params:   testParams(),
			Registry: obs.NewRegistry(),
		},
		Heartbeat: 50 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := co.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return co
}

// TestScatterDealsRoundRobin: units land on live workers' deques
// evenly, UnitsPerWorker per worker.
func TestScatterDealsRoundRobin(t *testing.T) {
	co := newSchedulerOnly(t, nil)
	w1 := co.register("a")
	w2 := co.register("b")

	units := co.scatter("table3", testParams(), span.Context{})
	if want := co.cfg.UnitsPerWorker * 2; len(units) != want {
		t.Fatalf("scatter produced %d units, want %d", len(units), want)
	}
	co.mu.Lock()
	q1, q2 := len(w1.deque), len(w2.deque)
	co.mu.Unlock()
	if q1 != co.cfg.UnitsPerWorker || q2 != co.cfg.UnitsPerWorker {
		t.Errorf("deal uneven: %d vs %d", q1, q2)
	}
	// Shards must partition: every index 0..k-1 exactly once.
	seen := map[string]bool{}
	for _, u := range units {
		if seen[u.Shard] {
			t.Errorf("duplicate shard %s", u.Shard)
		}
		seen[u.Shard] = true
		if !strings.HasSuffix(u.Shard, "/4") {
			t.Errorf("shard %s not of count 4", u.Shard)
		}
		if !validAddr(u.Addr) {
			t.Errorf("unit address %q not a content address", u.Addr)
		}
	}
}

// TestPollStealsFromLongestVictim: a worker with an empty deque steals
// half the longest victim's deque from the back, mirroring the runner.
func TestPollStealsFromLongestVictim(t *testing.T) {
	co := newSchedulerOnly(t, func(cfg *Config) { cfg.UnitsPerWorker = 4 })
	w1 := co.register("a")
	w2 := co.register("b")

	co.scatter("table3", testParams(), span.Context{}) // 4 each

	// w2 drains its own deque first.
	for i := 0; i < 4; i++ {
		u, ok := co.poll(w2.id, 0)
		if !ok || u == nil {
			t.Fatalf("poll %d: unit=%v ok=%v", i, u, ok)
		}
	}
	if co.steals.Value() != 0 {
		t.Fatalf("steals before exhaustion: %d", co.steals.Value())
	}
	// The next poll must steal from w1 (the only victim).
	u, ok := co.poll(w2.id, 0)
	if !ok || u == nil {
		t.Fatal("steal poll returned nothing")
	}
	if co.steals.Value() == 0 {
		t.Error("steal not counted")
	}
	co.mu.Lock()
	q1 := len(w1.deque)
	co.mu.Unlock()
	// w1 had 4; half (2) were stolen, one handed out, one parked on
	// w2's deque.
	if q1 != 2 {
		t.Errorf("victim deque has %d units after steal, want 2", q1)
	}
}

// TestExpiryRequeuesLeases: a worker that stops heartbeating loses its
// leased unit to the TTL reaper; with another live worker present the
// unit is reassigned, not abandoned.
func TestExpiryRequeuesLeases(t *testing.T) {
	co := newSchedulerOnly(t, func(cfg *Config) { cfg.UnitsPerWorker = 1 })
	w1 := co.register("dies")
	w2 := co.register("survives")

	units := co.scatter("table3", testParams(), span.Context{})
	// Lease everything w1 holds, then fall silent.
	u1, ok := co.poll(w1.id, 0)
	if !ok || u1 == nil {
		t.Fatal("w1 got no unit")
	}

	// Keep w2 alive past w1's TTL.
	deadline := time.Now().Add(10 * time.Second)
	for {
		co.heartbeat(w2.id)
		co.mu.Lock()
		gone := w1.gone
		co.mu.Unlock()
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("w1 never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if co.workersLost.Value() == 0 {
		t.Error("lost worker not counted")
	}
	if !co.heartbeat(w1.id) == false {
		t.Error("expired worker's heartbeat should report gone")
	}

	// w2 must now receive w1's unit, attempts incremented.
	got := map[string]int{}
	for range units {
		u, ok := co.poll(w2.id, time.Second)
		if !ok || u == nil {
			t.Fatal("w2 poll came up empty")
		}
		got[u.ID]++
	}
	if got[u1.ID] != 1 {
		t.Errorf("reassigned unit %s seen %d times by w2", u1.ID, got[u1.ID])
	}
	if co.unitsReassigned.Value() == 0 {
		t.Error("reassignment not counted")
	}
}

// TestLastWorkerLossAbandonsUnits: when the final live worker dies,
// pending units are abandoned (so the coordinator's local pass takes
// over) instead of waiting forever for a worker that will never come.
func TestLastWorkerLossAbandonsUnits(t *testing.T) {
	co := newSchedulerOnly(t, nil)
	w1 := co.register("only")
	units := co.scatter("table3", testParams(), span.Context{})

	co.mu.Lock()
	co.dropWorkerLocked(w1, true)
	co.mu.Unlock()

	for _, u := range units {
		select {
		case <-u.finished:
		case <-time.After(time.Second):
			t.Fatalf("unit %s still pending after last worker loss", u.ID)
		}
		if u.state != unitAbandoned {
			t.Errorf("unit %s state %s, want abandoned", u.ID, u.state)
		}
	}
}

// TestFailRequeueRespectsAttempts: a requeued failure retries until
// MaxAttempts, then the unit fails terminally.
func TestFailRequeueRespectsAttempts(t *testing.T) {
	co := newSchedulerOnly(t, func(cfg *Config) {
		cfg.UnitsPerWorker = 1
		cfg.MaxAttempts = 2
	})
	w := co.register("flaky")
	units := co.scatter("table3", testParams(), span.Context{})
	if len(units) != 1 {
		t.Fatalf("want 1 unit, got %d", len(units))
	}
	u := units[0]

	for attempt := 1; ; attempt++ {
		polled, ok := co.poll(w.id, time.Second)
		if !ok || polled == nil {
			t.Fatalf("attempt %d: no unit", attempt)
		}
		if !co.unitFailReport(polled.ID, FailRequest{Error: "boom", Requeue: true}) {
			t.Fatalf("attempt %d: fail report rejected", attempt)
		}
		if u.terminal() {
			if attempt != 2 {
				t.Errorf("unit terminal after %d attempts, want 2", attempt)
			}
			break
		}
		if attempt > 5 {
			t.Fatal("unit never exhausted its attempts")
		}
	}
	if u.state != unitFailed {
		t.Errorf("state %s, want failed", u.state)
	}
}

// TestValidAddr pins the address validation used by the cache-tier
// handlers (a short address would index the store out of range).
func TestValidAddr(t *testing.T) {
	good := strings.Repeat("ab", 32)
	if !validAddr(good) {
		t.Error("rejects a valid address")
	}
	for _, bad := range []string{"", "ab", strings.Repeat("g", 64), strings.Repeat("AB", 32), good + "00"} {
		if validAddr(bad) {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestDecodeTraceRejectsGarbage: the trace-tier upload path must
// reject truncated or corrupt frames with an error, never panic or
// accept them.
func TestDecodeTraceRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		{0, 0},
		{0, 0, 0, 10, 'x'},                    // stats length past the end
		{0, 0, 0, 2, '{', '}', 1, 2, 3},       // garbage trace payload
		{0, 0, 0, 2, 'n', 'o', 1, 2, 3, 4, 5}, // bad stats JSON
	} {
		if _, err := decodeTrace(bad); err == nil {
			t.Errorf("decodeTrace(%v) accepted garbage", bad)
		}
	}
}

// TestScatterCarriesPolicySpec: a coordinator with a base-config policy
// scatters units that name it in canonical spec form, and a worker can
// parse the spec back to an equivalent policy. Unpolicied params
// scatter with the field empty (omitted on the wire).
func TestScatterCarriesPolicySpec(t *testing.T) {
	pol, err := policy.Parse("throttle:4,2,1")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Pipeline.Policy = pol
	co := newSchedulerOnly(t, func(c *Config) { c.Serve.Params = p })
	co.register("a")

	units := co.scatter("table3", p, span.Context{})
	if len(units) == 0 {
		t.Fatal("no units scattered")
	}
	for _, u := range units {
		if u.Policy != "throttle:4,2,1" {
			t.Fatalf("unit policy = %q, want throttle:4,2,1", u.Policy)
		}
		back, err := policy.Parse(u.Policy)
		if err != nil {
			t.Fatalf("worker-side parse: %v", err)
		}
		if back.Name() != pol.Name() {
			t.Errorf("policy did not round-trip: %q != %q", back.Name(), pol.Name())
		}
	}

	plain := newSchedulerOnly(t, nil)
	plain.register("a")
	for _, u := range plain.scatter("table3", testParams(), span.Context{}) {
		if u.Policy != "" {
			t.Errorf("unpolicied unit carries policy %q", u.Policy)
		}
	}
}

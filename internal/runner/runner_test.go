package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specctrl/internal/obs"
)

// grid returns n specs with distinct keys.
func grid(n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{
			Experiment: "test",
			Workload:   fmt.Sprintf("w%d", i),
			Predictor:  "gshare",
			Variant:    "main",
		}
	}
	return specs
}

// TestRunPositionalDeterminism checks that results come back aligned
// with the input specs and identical across worker counts, even when
// cells finish out of order.
func TestRunPositionalDeterminism(t *testing.T) {
	specs := grid(37)
	cell := func(_ context.Context, sp Spec) (any, error) {
		// Uneven, scheduling-visible durations: later cells finish first.
		time.Sleep(time.Duration(len(sp.Workload)) * 100 * time.Microsecond)
		return sp.Key() + ":" + fmt.Sprint(sp.Seed), nil
	}
	var ref []Result
	for _, jobs := range []int{1, 4, 16} {
		res, err := New(Options{Jobs: jobs}).Run(context.Background(), specs, cell)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, r := range res {
			if !r.Ran || r.Err != nil {
				t.Fatalf("jobs=%d: cell %d not run cleanly: %+v", jobs, i, r)
			}
			if r.Spec.Key() != specs[i].Key() {
				t.Fatalf("jobs=%d: result %d misaligned: %s", jobs, i, r.Spec.Key())
			}
		}
		if ref == nil {
			ref = res
		} else if !reflect.DeepEqual(res, ref) {
			t.Fatalf("jobs=%d: results differ from serial reference", jobs)
		}
	}
}

// TestStealOccurs forces one worker's queue to be slow and checks the
// steal counter moves: the parallel path must not silently degrade to
// static partitioning.
func TestStealOccurs(t *testing.T) {
	reg := obs.NewRegistry()
	specs := grid(64)
	// Every spec has its own workload, so the deal is round-robin in
	// spec order and worker 0 gets the specs with index ≡ 0 (mod 8).
	// Make exactly those slow: the other workers drain their queues
	// quickly and must steal worker 0's backlog to finish.
	cell := func(_ context.Context, sp Spec) (any, error) {
		var i int
		fmt.Sscanf(sp.Workload, "w%d", &i)
		d := 50 * time.Microsecond
		if i%8 == 0 {
			d = 3 * time.Millisecond
		}
		time.Sleep(d)
		return nil, nil
	}
	if _, err := New(Options{Jobs: 8, Obs: reg}).Run(context.Background(), specs, cell); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("specctrl_runner_cells_total", nil).Value(); got != 64 {
		t.Fatalf("cells_total = %d, want 64", got)
	}
	if reg.Counter("specctrl_runner_steals_total", nil).Value() == 0 {
		t.Fatal("no steals observed: idle workers left worker 0's backlog alone")
	}
}

// TestDealOrder pins the deal: every workload's first cell before any
// workload's second, spec order within a rank, so a recording cell
// starts before the replays of every workload and, at 2 workers over
// an even number of workloads, each worker replays what it recorded.
// A grid whose cells all share one workload keeps the round-robin
// deal in spec order.
func TestDealOrder(t *testing.T) {
	var specs []Spec
	for _, w := range []string{"gcc", "go", "li", "perl"} {
		for _, v := range []string{"record", "replay0", "replay1"} {
			specs = append(specs, Spec{Experiment: "fig3", Workload: w, Predictor: "gshare", Variant: v})
		}
	}
	all := make([]int, len(specs))
	for i := range all {
		all[i] = i
	}
	order := dealOrder(specs, all)
	if want := []int{0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11}; !reflect.DeepEqual(order, want) {
		t.Fatalf("dealOrder = %v, want %v", order, want)
	}
	const jobs = 2
	recordedBy := map[string]int{}
	for k, i := range order {
		sp := specs[i]
		if sp.Variant == "record" {
			recordedBy[sp.Workload] = k % jobs
		} else if w, ok := recordedBy[sp.Workload]; !ok || w != k%jobs {
			t.Errorf("%s dealt to worker %d, its recording to worker %d (dealt: %v)", sp.Key(), k%jobs, w, ok)
		}
	}

	// A shard deals only what it owns, ranked the same way.
	if got, want := dealOrder(specs, []int{1, 3, 5, 7, 9, 11}), []int{1, 3, 7, 9, 5, 11}; !reflect.DeepEqual(got, want) {
		t.Errorf("shard dealOrder = %v, want %v", got, want)
	}

	// One workload key (the policy sweep's "suite"): spec order.
	suite := make([]Spec, 7)
	for i := range suite {
		suite[i] = Spec{Experiment: "sweep", Workload: "suite", Predictor: "gshare", Variant: fmt.Sprint(i)}
	}
	if got := dealOrder(suite, all[:7]); !reflect.DeepEqual(got, all[:7]) {
		t.Errorf("single-key dealOrder = %v, want spec order", got)
	}

	// A single worker runs its deque front to back: the deal order.
	var ran []int
	idx := map[string]int{}
	for i, sp := range specs {
		idx[sp.Key()] = i
	}
	cell := func(_ context.Context, sp Spec) (any, error) {
		ran = append(ran, idx[sp.Key()])
		return nil, nil
	}
	if _, err := New(Options{Jobs: 1}).Run(context.Background(), specs, cell); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, order) {
		t.Errorf("serial run order = %v, want %v", ran, order)
	}
}

// TestCancelMidFlight cancels a sweep while cells are running and
// checks partial-result reporting and that no worker goroutines leak.
func TestCancelMidFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	cell := func(ctx context.Context, _ Spec) (any, error) {
		if started.Add(1) == 3 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return "done", nil
	}
	res, err := New(Options{Jobs: 4}).Run(ctx, grid(100), cell)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ran, skipped := 0, 0
	for _, r := range res {
		if r.Ran {
			ran++
			if r.Value != "done" {
				t.Fatalf("ran cell has wrong value %v", r.Value)
			}
		} else {
			skipped++
		}
	}
	if ran == 0 || skipped == 0 {
		t.Fatalf("want a mid-flight split, got ran=%d skipped=%d", ran, skipped)
	}
	// Workers exit at the next cell boundary; give them a moment.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, n)
	}
}

// TestCellError checks that a failing cell cancels the sweep and is
// reported with its spec key.
func TestCellError(t *testing.T) {
	boom := errors.New("boom")
	cell := func(_ context.Context, sp Spec) (any, error) {
		if sp.Workload == "w5" {
			return nil, boom
		}
		return 1, nil
	}
	res, err := New(Options{Jobs: 4}).Run(context.Background(), grid(20), cell)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if want := "test/w5/gshare/main"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err %q does not name failing cell %q", err, want)
	}
	if !res[5].Ran || res[5].Err == nil {
		t.Fatalf("failing cell result not recorded: %+v", res[5])
	}
}

// TestShardPartition checks that n shards partition the grid exactly:
// every spec runs on exactly one shard.
func TestShardPartition(t *testing.T) {
	const n = 4
	specs := grid(26)
	owner := make([]int, len(specs))
	for i := range owner {
		owner[i] = -1
	}
	cell := func(_ context.Context, _ Spec) (any, error) { return true, nil }
	for s := 0; s < n; s++ {
		res, err := New(Options{Jobs: 2, Shard: Shard{Index: s, Count: n}}).
			Run(context.Background(), specs, cell)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Ran {
				if owner[i] != -1 {
					t.Fatalf("spec %d ran on shards %d and %d", i, owner[i], s)
				}
				owner[i] = s
			}
		}
	}
	for i, o := range owner {
		if o == -1 {
			t.Fatalf("spec %d ran on no shard", i)
		}
	}
}

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"0/1": {0, 1},
		"2/8": {2, 8},
		"7/8": {7, 8},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Fatalf("ParseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "3", "8/8", "-1/4", "a/b", "1/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Fatalf("ParseShard(%q) succeeded, want error", bad)
		}
	}
}

// TestDeriveSeedGolden pins the seed derivation. These values are part
// of the published results: every table in EXPERIMENTS.md was generated
// with them, so a change here is a change to every experiment.
func TestDeriveSeedGolden(t *testing.T) {
	golden := map[string]uint64{
		"table2/gcc/gshare/main":   0x468e97dc3294338a,
		"table2/go/mcfarling/main": 0x73fd7a5597ca680c,
		"xinput/perl/gshare/main":  0x98d92bd78984d661,
	}
	for key, want := range golden {
		if got := DeriveSeed(DefaultBaseSeed, key); got != want {
			t.Errorf("DeriveSeed(base, %q) = %#x, want %#x", key, got, want)
		}
	}
	// Distinct keys must get distinct streams.
	a := DeriveSeed(DefaultBaseSeed, "table2/gcc/gshare/main")
	b := DeriveSeed(DefaultBaseSeed, "table2/gcc/gshare/alt")
	if a == b {
		t.Fatal("distinct keys derived the same seed")
	}
	// And the derivation must depend on the base seed.
	if DeriveSeed(1, "k") == DeriveSeed(2, "k") {
		t.Fatal("base seed ignored")
	}
}

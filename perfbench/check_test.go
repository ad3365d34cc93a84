package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens under golden/c<goldenCommitted>")

// goldenCommitted is the small scale the benchmark owns goldens for.
const goldenCommitted = 120_000

func TestSectionCheckerMatchesInOrderAtBoundaries(t *testing.T) {
	full := "T1\n==\na\n\nT2\n==\nb\n\nT2\n==\nb\nmore\n\n"
	c := sectionChecker{full: full}
	outs := []output{
		{"one", "T1\n==\na\n\n"},
		{"two", "T2\n==\nb\n\n"},
		{"two-detail", "T2\n==\nb\nmore\n\n"},
	}
	if errs := c.check(outs); failures(errs) != 0 {
		t.Fatalf("matching outputs failed: %v", errs)
	}
	// "a\n\n" occurs in the file, but not at a section boundary.
	if errs := c.check([]output{{"mid", "a\n\n"}}); errs[0] == nil {
		t.Error("text inside a section matched")
	}
	// Out of order: the second section cannot precede the first.
	if errs := c.check([]output{outs[2], outs[0]}); errs[1] == nil {
		t.Error("out-of-order section matched")
	}
	// A rendering that lost its tail ends inside its section.
	cut := sectionChecker{full: "T1\n==\na\n\nT2\n==\nb\n\nmore\n\n"}
	if errs := cut.check([]output{{"two", "T2\n==\nb\n\n"}}); errs[0] == nil {
		t.Error("truncated rendering matched")
	}
	if errs := cut.check([]output{{"one", "T1\n==\na\n\n"}, {"two", "T2\n==\nb\n\nmore\n\n"}}); failures(errs) != 0 {
		t.Errorf("whole sections failed: %v", errs)
	}
}

func TestSelfTestNeedsALiveChecker(t *testing.T) {
	c := pairChecker{want: map[string]string{"a": "hello\n", "b": "world\n"}}
	outs := []output{{"a", "hello\n"}, {"b", "world\n"}}
	errs := c.check(outs)
	if failures(errs) != 0 {
		t.Fatalf("unexpected failures %v", errs)
	}
	if !selfTest(c, outs, errs) {
		t.Error("self-test failed on a live checker")
	}
	if selfTest(blindChecker{}, outs, make([]error, len(outs))) {
		t.Error("self-test passed on a checker that accepts anything")
	}
	if selfTest(c, outs, []error{os.ErrInvalid, os.ErrInvalid}) {
		t.Error("self-test passed with no passing output to flip")
	}
}

type blindChecker struct{}

func (blindChecker) check(outs []output) []error { return make([]error, len(outs)) }

// testRun returns a run configuration rooted at root with a private
// scratch directory.
func testRun(t *testing.T, root string) *runConfig {
	t.Helper()
	return &runConfig{
		seed: 7, seconds: 0.001, committed: goldenCommitted,
		root: root, scratch: t.TempDir(), info: map[string]any{},
	}
}

// writeGoldens renders both batch workloads at the golden scale into
// dir.
func writeGoldens(t *testing.T, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	base := batchParams(goldenCommitted, 1)
	for _, names := range [][]string{estimatorSweep, speculationControl} {
		bp := runPass(names, base, nil, nil)
		for i, o := range bp.outs {
			if bp.runErrs[i] != nil {
				t.Fatalf("%s: %v", o.name, bp.runErrs[i])
			}
			if err := os.WriteFile(filepath.Join(dir, o.name+".txt"), []byte(o.text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBatchGoldenAndFlippedByte runs both batch workloads at the golden
// scale: they must match the goldens, and with one byte of one golden
// flipped speculation-control must report that experiment as failed.
func TestBatchGoldenAndFlippedByte(t *testing.T) {
	golden := filepath.Join("golden", "c120000")
	if *update {
		writeGoldens(t, golden)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{estimatorSweep, speculationControl} {
		res, err := runBatch(names)(testRun(t, root))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != len(names) {
			t.Fatalf("clean run of %v: correct=%v attempted=%d failed=%d", names, res.Correct, res.Attempted, res.Failed)
		}
	}

	// A copy of the goldens with one byte flipped.
	tmp := t.TempDir()
	dst := filepath.Join(tmp, "perfbench", golden)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range speculationControl {
		data, err := os.ReadFile(filepath.Join(golden, name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if name == "frontier" {
			data[len(data)/3] ^= 0x01
		}
		if err := os.WriteFile(filepath.Join(dst, name+".txt"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := runBatch(speculationControl)(testRun(t, tmp))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("flipped golden: got correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
}

func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", got, perLayer)
	}
	var wls []string
	for name := range workloadsByName {
		wls = append(wls, name)
	}
	slices.Sort(wls)
	got := names(b.Workloads)
	slices.Sort(got)
	if !slices.Equal(got, wls) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, wls)
	}
}

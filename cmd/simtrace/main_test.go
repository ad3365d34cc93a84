package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specctrl/internal/replay"
)

func TestNewPredictor(t *testing.T) {
	for _, name := range []string{"gshare", "mcfarling", "sag"} {
		if _, err := newPredictor(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := newPredictor("oracle"); err == nil {
		t.Error("unknown predictor accepted")
	}
}

// TestRecordAndSummarize is the command's smoke test: record one gcc
// run to both sinks, then check that -summarize of the JSONL stream
// reports the run's own statistics and that the SPAT file decodes to
// the run's committed stream.
func TestRecordAndSummarize(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "out.jsonl")
	spat := filepath.Join(dir, "out.spat")
	st, err := doRecord(recordOptions{
		workload:  "gcc",
		predictor: "gshare",
		jsonlPath: jsonl,
		archPath:  spat,
		committed: 50_000,
		iters:     1 << 30,
	})
	if err != nil {
		t.Fatalf("doRecord: %v", err)
	}

	var out bytes.Buffer
	if err := doSummarize(&out, jsonl); err != nil {
		t.Fatalf("doSummarize: %v", err)
	}
	q := st.Confidence[0].CommittedQ
	pct := func(n uint64) float64 { return 100 * float64(n) / float64(st.CommittedBr) }
	want := fmt.Sprintf("events      %d\ncommitted   %d\nwrong-path  %d\nmispredict  %d (%.1f%%)\nlow-conf    %d (%.1f%%)\n",
		st.AllBr, st.CommittedBr, st.AllBr-st.CommittedBr,
		q.Incorrect(), pct(q.Incorrect()), q.Clc+q.Ilc, pct(q.Clc+q.Ilc))
	if out.String() != want {
		t.Errorf("summary:\n%s\nwant (from the run's Stats):\n%s", out.String(), want)
	}
	if st.CommittedBr == 0 || st.AllBr == st.CommittedBr {
		t.Errorf("run has %d committed of %d branches; want both paths exercised", st.CommittedBr, st.AllBr)
	}

	data, err := os.ReadFile(spat)
	if err != nil {
		t.Fatal(err)
	}
	at, err := replay.DecodeArch(data)
	if err != nil {
		t.Fatalf("DecodeArch: %v", err)
	}
	if at.Committed() != st.Committed || uint64(at.Branches()) != st.CommittedBr {
		t.Errorf("SPAT stream: %d instructions, %d branches; run: %d, %d",
			at.Committed(), at.Branches(), st.Committed, st.CommittedBr)
	}
}

// TestSummarizeMalformed: a stream that is not -record-jsonl output
// fails with the index of the first bad event.
func TestSummarizeMalformed(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"garbage":       "{\"pc\":4,\"pred\":true,\"outcome\":true,\"hc\":true,\"cycle\":1}\nnot json\n",
		"unknown field": "{\"pc\":4,\"pred\":true,\"outcome\":true,\"hc\":true,\"cycle\":1}\n{\"bogus\":1}\n",
		"truncated":     "{\"pc\":4,\"pred\":true,\"outcome\":true,\"hc\":true,\"cycle\":1}\n{\"pc\":",
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-"))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := doSummarize(&bytes.Buffer{}, path)
		if err == nil || !strings.Contains(err.Error(), "event 1") {
			t.Errorf("%s: doSummarize = %v, want an error at event 1", name, err)
		}
	}
}

func TestRecordUnknownWorkload(t *testing.T) {
	_, err := doRecord(recordOptions{
		workload:  "no-such-benchmark",
		predictor: "gshare",
		archPath:  filepath.Join(t.TempDir(), "x.spat"),
		committed: 1000,
		iters:     1,
	})
	if err == nil {
		t.Error("unknown workload accepted")
	}
}

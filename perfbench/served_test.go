package main

import (
	"path/filepath"
	"testing"
)

func TestServedMixOnePass(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	rc := testRun(t, root)
	res, err := runServed(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != passJobs {
		t.Fatalf("served pass: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if err := checkMetricSet(res.Metrics, endToEnd); err != nil {
		t.Error(err)
	}
}

func TestMixHasAFixedShareOfUniqueFreshJobs(t *testing.T) {
	m := newMix(3)
	seen := map[uint64]bool{}
	for p := 0; p < 5; p++ {
		fresh := 0
		for _, r := range m.pass() {
			if r.Committed == warmCommitted {
				continue
			}
			fresh++
			if seen[r.Committed] {
				t.Fatalf("fresh length %d repeated", r.Committed)
			}
			seen[r.Committed] = true
		}
		if fresh != passFresh {
			t.Errorf("pass %d: %d fresh jobs, want %d", p, fresh, passFresh)
		}
	}
	a, b := newMix(9).pass(), newMix(9).pass()
	for i := range a {
		if a[i].Committed != b[i].Committed {
			t.Fatal("same seed, different mix")
		}
	}
}

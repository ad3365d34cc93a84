package cluster

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"specctrl/internal/bpred"
	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
	"specctrl/internal/replay"
)

// blobBodies returns one valid wire body per cache tier.
func blobBodies(t *testing.T) map[string][]byte {
	t.Helper()
	cell, err := cellCodec.encode(experiments.CellResult{Extra: map[string]float64{"sens": 0.5}})
	if err != nil {
		t.Fatal(err)
	}

	rec := replay.NewRecorder()
	for i := int64(0); i < 40; i++ {
		pc := 4096 + 4*i
		rec.Estimate(pc, bpred.Info{Pred: true})
		rec.Branch(obs.BranchEvent{PC: pc, Pred: true, Outcome: i%3 != 0})
		rec.Resolve(pc, bpred.Info{Pred: true}, i%3 != 0)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	trace, err := traceCodec.encode(replay.Recording{Trace: tr, Stats: &pipeline.Stats{Committed: 400}})
	if err != nil {
		t.Fatal(err)
	}

	arec := replay.NewArchRecorder()
	for i := int64(0); i < 40; i++ {
		arec.Branch(obs.BranchEvent{PC: 4096 + 8*(i%5), Outcome: i%2 == 0})
	}
	arec.SetCommitted(400)
	arch, err := archCodec.encode(arec.Trace())
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{tierCell: cell, tierTrace: trace, tierArch: arch}
}

// blobDo sends one request to the blob route and returns the status
// and response body.
func blobDo(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestBlobRoute drives GET/PUT /cluster/v1/blobs/{tier}/{addr} over
// every tier in the table: malformed addresses are 400, unknown tiers
// 404, an undecodable body is 400 and stores nothing, a stored blob
// reads back byte-identical, and each tier's counters move.
func TestBlobRoute(t *testing.T) {
	co := newSchedulerOnly(t, nil)
	addr := strings.Repeat("ab", 32)

	for _, name := range []string{"nope", "cells"} {
		if code, _ := blobDo(t, http.MethodGet, co.URL()+blobPath(name, addr), nil); code != http.StatusNotFound {
			t.Errorf("GET unknown tier %q: HTTP %d, want 404", name, code)
		}
		if code, _ := blobDo(t, http.MethodPut, co.URL()+blobPath(name, addr), []byte("x")); code != http.StatusNotFound {
			t.Errorf("PUT unknown tier %q: HTTP %d, want 404", name, code)
		}
	}

	bodies := blobBodies(t)
	if len(bodies) != len(co.blobs) {
		t.Fatalf("test covers %d tiers, the table has %d", len(bodies), len(co.blobs))
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			bt := co.blobs[name]
			url := co.URL() + blobPath(name, addr)
			for _, bad := range []string{"AB" + addr[2:], addr[:62], addr + "00", "..%2f" + addr[5:]} {
				if code, _ := blobDo(t, http.MethodGet, co.URL()+blobPath(name, bad), nil); code != http.StatusBadRequest {
					t.Errorf("GET malformed address %q: HTTP %d, want 400", bad, code)
				}
				if code, _ := blobDo(t, http.MethodPut, co.URL()+blobPath(name, bad), body); code != http.StatusBadRequest {
					t.Errorf("PUT malformed address %q: HTTP %d, want 400", bad, code)
				}
			}

			if code, _ := blobDo(t, http.MethodGet, url, nil); code != http.StatusNotFound {
				t.Fatalf("GET before PUT: HTTP %d, want 404", code)
			}
			if got := bt.misses.Value(); got != 1 {
				t.Errorf("misses = %d after one miss, want 1", got)
			}

			for _, bad := range [][]byte{nil, []byte("garbage"), body[:len(body)/2], body[:len(body)-1]} {
				if code, _ := blobDo(t, http.MethodPut, url, bad); code != http.StatusBadRequest {
					t.Errorf("PUT corrupt body (%d bytes): HTTP %d, want 400", len(bad), code)
				}
			}
			if got := bt.puts.Value(); got != 0 {
				t.Errorf("puts = %d after only corrupt bodies, want 0", got)
			}
			if code, _ := blobDo(t, http.MethodGet, url, nil); code != http.StatusNotFound {
				t.Fatalf("a corrupt body was stored: GET HTTP %d", code)
			}

			if code, data := blobDo(t, http.MethodPut, url, body); code != http.StatusNoContent {
				t.Fatalf("PUT: HTTP %d: %s", code, data)
			}
			code, data := blobDo(t, http.MethodGet, url, nil)
			if code != http.StatusOK {
				t.Fatalf("GET after PUT: HTTP %d: %s", code, data)
			}
			if !bytes.Equal(data, body) {
				t.Error("GET after PUT returned different bytes than were stored")
			}
			if h, m, p := bt.hits.Value(), bt.misses.Value(), bt.puts.Value(); h != 1 || m != 2 || p != 1 {
				t.Errorf("hits/misses/puts = %d/%d/%d, want 1/2/1", h, m, p)
			}
		})
	}
}

// TestMetricsDocumented: every specctrl_cluster_* and specctrl_worker_*
// metric a coordinator and a worker register is listed in
// docs/CLUSTER.md.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/CLUSTER.md")
	if err != nil {
		t.Fatal(err)
	}
	co := newSchedulerOnly(t, nil)
	w, err := NewWorker(WorkerConfig{
		Coordinator: co.URL(),
		PollWait:    50 * time.Millisecond,
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Drain() })

	names := map[string]bool{}
	for _, reg := range []*obs.Registry{co.reg, w.reg} {
		for _, m := range reg.Snapshot() {
			if strings.HasPrefix(m.Name, "specctrl_cluster_") || strings.HasPrefix(m.Name, "specctrl_worker_") {
				names[m.Name] = true
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no cluster metrics registered")
	}
	var missing []string
	for name := range names {
		// A documented name is code-quoted, optionally with labels.
		if !regexp.MustCompile("`" + name + "[`{]").Match(doc) {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("docs/CLUSTER.md does not list: %s", strings.Join(missing, ", "))
	}
}

package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
)

// maxPollWait caps the long-poll duration a worker may request.
const maxPollWait = 30 * time.Second

// maxBodyBytes bounds every blob body, in both directions: the
// coordinator's PUT reads and the worker's GET reads. A full-scale
// suite trace is a few megabytes; 256 MiB leaves room for much larger
// budgets while still refusing an unbounded body.
const maxBodyBytes = 256 << 20

// mount registers the cluster wire protocol on the coordinator's serve
// mux (the serve.Config.Mount hook).
func (c *Coordinator) mount(mux *http.ServeMux) {
	mux.Handle("POST /cluster/v1/workers", c.traced("register", c.handleRegister))
	mux.Handle("POST /cluster/v1/workers/{id}/heartbeat", c.traced("heartbeat", c.handleHeartbeat))
	mux.Handle("POST /cluster/v1/workers/{id}/poll", c.traced("poll", c.handlePoll))
	mux.Handle("POST /cluster/v1/workers/{id}/drain", c.traced("worker-drain", c.handleWorkerDrain))
	mux.Handle("POST /cluster/v1/units/{id}/done", c.traced("unit-done", c.handleUnitDone))
	mux.Handle("POST /cluster/v1/units/{id}/fail", c.traced("unit-fail", c.handleUnitFail))
	mux.Handle("GET /cluster/v1/blobs/{tier}/{addr}", c.traced("blob-get", c.handleBlobGet))
	mux.Handle("PUT /cluster/v1/blobs/{tier}/{addr}", c.traced("blob-put", c.handleBlobPut))
	mux.Handle("GET /cluster/v1/status", c.traced("cluster-status", c.handleStatus))
}

// traced wraps a cluster handler in an "http:cluster/<name>" span
// joined to the caller's traceparent, so a worker's cache fetches and
// unit reports appear inside the job's cross-node trace.
func (c *Coordinator) traced(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c.tracer == nil {
			h(w, r)
			return
		}
		sp := c.tracer.Child(span.Extract(r.Header), "http:cluster/"+name,
			span.Str("method", r.Method), span.Str("path", r.URL.Path))
		defer sp.End()
		h(w, r.WithContext(span.NewContext(r.Context(), sp)))
	})
}

// clusterError is every non-2xx cluster JSON body.
type clusterError struct {
	Error string `json:"error"`
}

func clusterJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func clusterErrorf(w http.ResponseWriter, code int, format string, args ...any) {
	clusterJSON(w, code, clusterError{Error: fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		clusterErrorf(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	ws := c.register(req.Node)
	clusterJSON(w, http.StatusOK, RegisterResponse{
		ID:              ws.id,
		HeartbeatMillis: c.cfg.Heartbeat.Milliseconds(),
		LeaseTTLMillis:  c.leaseTTL().Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !c.heartbeat(r.PathValue("id")) {
		// 410: the lease lapsed and the worker's units were requeued;
		// it must re-register under a fresh id.
		clusterErrorf(w, http.StatusGone, "unknown or expired worker %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	wait := 10 * time.Second
	if s := r.URL.Query().Get("wait"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			clusterErrorf(w, http.StatusBadRequest, "bad wait %q", s)
			return
		}
		wait = min(d, maxPollWait)
	}
	u, ok := c.poll(r.PathValue("id"), wait)
	if !ok {
		clusterErrorf(w, http.StatusGone, "unknown or expired worker %q", r.PathValue("id"))
		return
	}
	if u == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	clusterJSON(w, http.StatusOK, u.Unit)
}

func (c *Coordinator) handleWorkerDrain(w http.ResponseWriter, r *http.Request) {
	if !c.drainWorker(r.PathValue("id")) {
		clusterErrorf(w, http.StatusGone, "unknown worker %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleUnitDone(w http.ResponseWriter, r *http.Request) {
	if !c.unitDoneReport(r.PathValue("id")) {
		clusterErrorf(w, http.StatusNotFound, "unknown unit %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleUnitFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		clusterErrorf(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !c.unitFailReport(r.PathValue("id"), req) {
		clusterErrorf(w, http.StatusNotFound, "unknown unit %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// blobTier is one row of the coordinator's cache-tier table: how the
// blob route reads and writes one shared tier through that tier's
// codec, and the tier's specctrl_cluster_<tier>_* counters.
type blobTier struct {
	// get returns the encoded value at addr, reporting whether the
	// tier holds one.
	get func(addr string) ([]byte, bool, error)
	// put decodes body and stores it at addr, returning the HTTP
	// status that describes a failure (400 for an undecodable body).
	put                func(addr string, body []byte) (int, error)
	hits, misses, puts *obs.Counter
}

// newBlobTier builds the table row for the tier named name over its
// typed get/put and wire codec. A body the codec rejects stores
// nothing and counts no put.
func newBlobTier[V any](reg *obs.Registry, name string, cd codec[V],
	get func(string) (V, bool), put func(string, V) error) *blobTier {
	return &blobTier{
		get: func(addr string) ([]byte, bool, error) {
			v, ok := get(addr)
			if !ok {
				return nil, false, nil
			}
			data, err := cd.encode(v)
			return data, true, err
		},
		put: func(addr string, body []byte) (int, error) {
			v, err := cd.decode(body)
			if err != nil {
				return http.StatusBadRequest, err
			}
			if err := put(addr, v); err != nil {
				return http.StatusInternalServerError, err
			}
			return http.StatusNoContent, nil
		},
		hits:   reg.Counter("specctrl_cluster_"+name+"_hits_total", nil),
		misses: reg.Counter("specctrl_cluster_"+name+"_misses_total", nil),
		puts:   reg.Counter("specctrl_cluster_"+name+"_puts_total", nil),
	}
}

// blobRequest resolves a blob route's {tier} and {addr}, answering 404
// for an unknown tier and 400 for a malformed address.
func (c *Coordinator) blobRequest(w http.ResponseWriter, r *http.Request) (*blobTier, string, bool) {
	name, addr := r.PathValue("tier"), r.PathValue("addr")
	bt, ok := c.blobs[name]
	if !ok {
		clusterErrorf(w, http.StatusNotFound, "unknown cache tier %q", name)
		return nil, "", false
	}
	if !validAddr(addr) {
		clusterErrorf(w, http.StatusBadRequest, "malformed %s address %q", name, addr)
		return nil, "", false
	}
	return bt, addr, true
}

// handleBlobGet serves every shared cache tier: a worker consults the
// cell tier before simulating and the trace tiers before recording, so
// any node's work is every node's hit.
func (c *Coordinator) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	bt, addr, ok := c.blobRequest(w, r)
	if !ok {
		return
	}
	data, found, err := bt.get(addr)
	if err != nil {
		clusterErrorf(w, http.StatusInternalServerError, "%v", err)
		return
	}
	outcome, counter := "miss", bt.misses
	if found {
		outcome, counter = "hit", bt.hits
	}
	counter.Inc()
	if sp := span.FromContext(r.Context()); sp != nil {
		sp.SetAttrs(span.Str("outcome", outcome))
	}
	if !found {
		clusterErrorf(w, http.StatusNotFound, "no %s at %s", r.PathValue("tier"), addr)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// handleBlobPut is the write-through half of every tier: workers
// publish each cell and recording the moment it completes. For cells
// this is also what makes the store the reassignment checkpoint — a
// unit re-run after a worker death hits everything its predecessor
// published.
func (c *Coordinator) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	bt, addr, ok := c.blobRequest(w, r)
	if !ok {
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		clusterErrorf(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if code, err := bt.put(addr, data); err != nil {
		clusterErrorf(w, code, "%v", err)
		return
	}
	bt.puts.Inc()
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	clusterJSON(w, http.StatusOK, c.status())
}

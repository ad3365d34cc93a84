package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/replay"
	"specctrl/internal/serve"
)

// The served mix is unverified: the repository holds no traffic log,
// so the shares are a guess. Most jobs repeat a request the store
// already holds (every cell a store read); the rest are fresh table3
// jobs, each at its own committed length, so each simulates and writes
// its cells. The shapes follow the served smoke in scripts/check.sh,
// which submits table3 at 60k committed and resubmits it to be read
// wholly from the store. Replace the mix once a traffic log exists.
const (
	warmCommitted = 40_000 // scale of the warm job
	freshBase     = 40_000 // fresh jobs run at freshBase+1 .. freshBase+freshSpan
	freshSpan     = 20_000
	passJobs      = 50 // jobs per pass; wall_s and cpu_s are per pass
	// servedPassSeconds is about how long a pass takes on a 2-core
	// Xeon; a run measures --seconds worth of passes.
	servedPassSeconds = 1
	passFresh         = 10 // fresh jobs per pass, at seeded positions
	servedSetups      = 15
)

// warmJob is the request set-up stores and most of the mix repeats:
// 104 cells. The server keeps every finished job's cells in memory, so
// the cell-heavy design-space figures are left out to keep the
// process small.
var warmJob = []string{"table2", "table3", "misest", "patterns", "cir", "abl-width"}

// freshJob is the experiment every fresh request runs.
const freshJob = "table3"

// noServer reports the serve layer's per-layer metrics as 0, for a
// workload without a server.
func noServer(m map[string]metric) {
	for _, name := range []string{"serve.submit_ms", "serve.queue_wait_ms", "serve.exec_ms", "serve.result_ms"} {
		m[name] = metric{0, "ms"}
	}
	m["serve.cache_hit_ratio"] = metric{0, "ratio"}
	m["serve.store_lookup_us"] = metric{0, "us"}
	m["serve.store_put_us"] = metric{0, "us"}
}

// servedEnv is one running server with the handles the benchmark reads.
type servedEnv struct {
	srv    *serve.Server
	client *http.Client
	params experiments.Params // the server's base parameters
	warmID string
}

// fillStore runs the warm job once on a server over a fresh store
// under the run's scratch directory, and returns the store's directory.
func fillStore(rc *runConfig) (string, error) {
	dir := filepath.Join(rc.scratch, "store")
	env, err := startServed(dir, nil, nil)
	if err != nil {
		return "", err
	}
	env.stop()
	return dir, nil
}

// startServed starts a server on loopback over the store in dir and
// runs the warm job (from the store, once it is filled). tr and reg,
// when non-nil, are the traced run's tracer and registry.
func startServed(dir string, tr *span.Tracer, reg *obs.Registry) (*servedEnv, error) {
	p := experiments.DefaultParams()
	p.MaxCommitted = warmCommitted
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p.TraceCache = replay.NewCache(0, reg)
	p.ArchCache = replay.NewArchCache(0, reg)
	srv, err := serve.New(serve.Config{
		Addr:           "127.0.0.1:0",
		CacheDir:       dir,
		Jobs:           workers,
		JobConcurrency: workers,
		Params:         p,
		Registry:       reg,
		Tracer:         tr,
	})
	if err != nil {
		return nil, err
	}
	env := &servedEnv{
		srv:    srv,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}},
		params: p,
	}
	rec := env.do(serve.SubmitRequest{Experiments: warmJob, Committed: warmCommitted})
	if rec.err != nil {
		env.stop()
		return nil, fmt.Errorf("warm job: %w", rec.err)
	}
	env.warmID = rec.id
	return env, nil
}

// stop drains the server and closes the client's idle connections.
func (e *servedEnv) stop() {
	e.srv.Drain()
	e.client.CloseIdleConnections()
}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	seq     int
	id      string
	req     serve.SubmitRequest
	err     error
	total   time.Duration // submit to result read
	submit  time.Duration
	result  time.Duration
	queue   time.Duration // server timestamps: created to started
	exec    time.Duration // started to finished
	cells   serve.CellCounts
	outputs []serve.ExperimentOutput
}

// do submits one job, waits for it through its event stream, and reads
// its result and status.
func (e *servedEnv) do(req serve.SubmitRequest) *jobRecord {
	rec := &jobRecord{req: req}
	base := e.srv.URL()
	body, err := json.Marshal(req)
	if err != nil {
		rec.err = err
		return rec
	}
	start := time.Now()
	var sub serve.SubmitResponse
	if err := e.call("POST", base+"/v1/jobs", body, http.StatusAccepted, &sub); err != nil {
		rec.err = err
		return rec
	}
	rec.id = sub.ID
	rec.submit = time.Since(start)
	if err := e.call("GET", base+sub.Events, nil, http.StatusOK, nil); err != nil {
		rec.err = err
		return rec
	}
	resStart := time.Now()
	var res serve.ResultResponse
	if err := e.call("GET", base+sub.Result, nil, http.StatusOK, &res); err != nil {
		rec.err = err
		return rec
	}
	rec.result = time.Since(resStart)
	rec.total = time.Since(start)
	rec.outputs = res.Outputs
	var st serve.StatusResponse
	if err := e.call("GET", base+sub.Status, nil, http.StatusOK, &st); err != nil {
		rec.err = err
		return rec
	}
	if st.StartedAt != nil && st.FinishedAt != nil {
		rec.queue = st.StartedAt.Sub(st.CreatedAt)
		rec.exec = st.FinishedAt.Sub(*st.StartedAt)
	}
	rec.cells = st.Cells
	return rec
}

// call makes one request, requires the status code, and decodes the
// body into out (or drains it when out is nil).
func (e *servedEnv) call(method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// mix generates the seeded request sequence: each fresh request gets a
// committed length no other request in the run has.
type mix struct {
	rng   *rand.Rand
	fresh []uint64 // unused fresh lengths, shuffled
}

func newMix(seed uint64) *mix {
	m := &mix{rng: rand.New(rand.NewPCG(seed, 0x5e7ed))}
	for i := uint64(1); i <= freshSpan; i++ {
		m.fresh = append(m.fresh, freshBase+i)
	}
	m.rng.Shuffle(len(m.fresh), func(i, j int) { m.fresh[i], m.fresh[j] = m.fresh[j], m.fresh[i] })
	return m
}

// pass returns the next pass's requests: passFresh fresh jobs at
// seeded positions, warm repeats elsewhere. Every pass has the same
// share, so seeds vary the order and lengths, not the amount of work.
func (m *mix) pass() []serve.SubmitRequest {
	reqs := make([]serve.SubmitRequest, passJobs)
	for i := range reqs {
		reqs[i] = serve.SubmitRequest{Experiments: warmJob, Committed: warmCommitted}
	}
	for _, i := range m.rng.Perm(passJobs)[:passFresh] {
		reqs[i] = serve.SubmitRequest{Experiments: []string{freshJob}, Committed: m.fresh[0]}
		m.fresh = m.fresh[1:]
	}
	return reqs
}

// servedPass is one pass of passJobs jobs from workers closed-loop
// clients.
type servedPass struct {
	wall, cpu float64
	jobs      []*jobRecord // in sequence order
}

func (e *servedEnv) runPass(m *mix) *servedPass {
	reqs := m.pass()
	sp := &servedPass{jobs: make([]*jobRecord, passJobs)}
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0, start := cpuSeconds(), time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= passJobs {
					return
				}
				rec := e.do(reqs[i])
				rec.seq = i
				sp.jobs[i] = rec
			}
		}()
	}
	wg.Wait()
	sp.wall = time.Since(start).Seconds()
	sp.cpu = cpuSeconds() - cpu0
	return sp
}

// window runs the passes of one measurement.
func (e *servedEnv) window(seconds float64, m *mix) []*servedPass {
	var passes []*servedPass
	for i := passCount(seconds, servedPassSeconds); i > 0; i-- {
		passes = append(passes, e.runPass(m))
	}
	return passes
}

// localChecker renders every distinct request of the passes locally,
// one experiment at a time, for the served outputs to be compared to.
func localChecker(passes []*servedPass) (pairChecker, error) {
	want := map[string]string{}
	tc, ac := replay.NewCache(0, nil), replay.NewArchCache(0, nil)
	for _, sp := range passes {
		for _, j := range sp.jobs {
			if j.err != nil {
				continue
			}
			for _, name := range j.req.Experiments {
				key := outputKey(name, j.req.Committed)
				if _, ok := want[key]; ok {
					continue
				}
				p := experiments.DefaultParams()
				p.MaxCommitted = j.req.Committed
				p.Jobs = workers
				p.TraceCache, p.ArchCache = tc, ac
				r, err := experiments.Run(name, p)
				if err != nil {
					return pairChecker{}, fmt.Errorf("local %s: %w", key, err)
				}
				want[key] = r.Render()
			}
		}
	}
	return pairChecker{want: want}, nil
}

func outputKey(name string, committed uint64) string {
	return fmt.Sprintf("%s@%d", name, committed)
}

// checkServed counts failed jobs (refused, failed, or with any output
// differing from the local rendering) and runs the checker self-test.
func checkServed(passes []*servedPass) (attempted, failed int, selfOK bool, sum string, err error) {
	c, err := localChecker(passes)
	if err != nil {
		return 0, 0, false, "", err
	}
	var all []output
	var allErrs []error
	for pi, sp := range passes {
		var passOuts []output
		for _, j := range sp.jobs {
			attempted++
			if j.err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: job %d: %v\n", j.seq, j.err)
				failed++
				continue
			}
			var outs []output
			for _, o := range j.outputs {
				outs = append(outs, output{name: outputKey(o.Experiment, j.req.Committed), text: o.Output})
			}
			errs := c.check(outs)
			if len(outs) != len(j.req.Experiments) {
				errs = append(errs, fmt.Errorf("job %s: %d outputs for %d experiments", j.id, len(outs), len(j.req.Experiments)))
			}
			if failures(errs) > 0 {
				failed++
			}
			all = append(all, outs...)
			allErrs = append(allErrs, errs[:len(outs)]...)
			if pi == 0 {
				passOuts = append(passOuts, outs...)
			}
		}
		if pi == 0 {
			sum = digest(passOuts)
		}
	}
	return attempted, failed, selfTest(c, all, allErrs), sum, nil
}

// latencies collects one duration field of the successful jobs, in ms.
func latencies(passes []*servedPass, f func(*jobRecord) time.Duration) []float64 {
	var ms []float64
	for _, sp := range passes {
		for _, j := range sp.jobs {
			if j.err == nil {
				ms = append(ms, float64(f(j).Nanoseconds())/1e6)
			}
		}
	}
	return ms
}

// runServed is the served-mix workload.
func runServed(rc *runConfig) (*result, error) {
	rc.info["workers"] = workers
	rc.info["clients"] = workers
	rc.info["mix"] = fmt.Sprintf("per pass of %d: %d x %v@%d (store reads), %d x %s at unique committed in %d..%d",
		passJobs, passJobs-passFresh, warmJob, warmCommitted, passFresh, freshJob, freshBase+1, freshBase+freshSpan)
	m := newMix(rc.seed)
	if rc.trace {
		return tracedServed(rc, m)
	}
	dir, err := fillStore(rc)
	if err != nil {
		return nil, err
	}
	var env *servedEnv
	var setupS []float64
	for i := 0; i < servedSetups; i++ {
		if env != nil {
			env.stop()
		}
		start := time.Now()
		e, err := startServed(dir, nil, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		env = e
	}
	passes := env.window(rc.seconds, m)
	rss := peakRSSMB()
	env.stop()

	attempted, failed, selfOK, sum, err := checkServed(passes)
	if err != nil {
		return nil, err
	}
	var walls, cpus []float64
	for _, sp := range passes {
		walls = append(walls, sp.wall)
		cpus = append(cpus, sp.cpu)
	}
	total := latencies(passes, func(j *jobRecord) time.Duration { return j.total })
	if len(total) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	metrics, err := passMetrics(rc, walls, cpus, total, setupS, rss, "served job, submit to result read")
	if err != nil {
		return nil, err
	}
	rc.info["output_sha256"] = sum
	rc.info["self_test"] = selfOK
	return &result{Correct: failed == 0 && selfOK, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// tracedServed measures the per-layer metrics: an untraced window for
// the overhead base, then a traced window on a second server under the
// CPU profiler, then the probes on that server's own caches and cells.
func tracedServed(rc *runConfig, m *mix) (*result, error) {
	dir, err := fillStore(rc)
	if err != nil {
		return nil, err
	}
	plainEnv, err := startServed(dir, nil, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC() // both windows start from a collected heap
	plain := plainEnv.window(rc.seconds, m)
	plainEnv.stop()

	reg := obs.NewRegistry()
	col := &spanCollector{}
	env, err := startServed(dir, newTracer(col), reg)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	runtime.GC()
	profPath := filepath.Join(rc.scratch, "cpu.pprof")
	traced, err := profiled(profPath, func() []*servedPass { return env.window(rc.seconds, m) })
	if err != nil {
		return nil, err
	}

	perPass := func(ps []*servedPass) float64 {
		var w []float64
		for _, sp := range ps {
			w = append(w, sp.wall)
		}
		return median(w)
	}
	out := map[string]metric{}
	if err := layerMetrics(out, rc, col, reg, profPath, perPass(traced)/perPass(plain)); err != nil {
		return nil, err
	}

	med := func(f func(*jobRecord) time.Duration) float64 { return median(latencies(traced, f)) }
	out["serve.submit_ms"] = metric{med(func(j *jobRecord) time.Duration { return j.submit }), "ms"}
	out["serve.queue_wait_ms"] = metric{med(func(j *jobRecord) time.Duration { return j.queue }), "ms"}
	out["serve.exec_ms"] = metric{med(func(j *jobRecord) time.Duration { return j.exec }), "ms"}
	out["serve.result_ms"] = metric{med(func(j *jobRecord) time.Duration { return j.result }), "ms"}
	var fromCache, done float64
	var lastFresh uint64
	for _, sp := range traced {
		for _, j := range sp.jobs {
			fromCache += float64(j.cells.FromCache)
			done += float64(j.cells.Done)
			if j.err == nil && j.req.Committed != warmCommitted {
				lastFresh = j.req.Committed
			}
		}
	}
	out["serve.cache_hit_ratio"] = metric{ratio(fromCache, done), "ratio"}

	// The probes read the last fresh job's traces and the warm job's
	// cells, both through the public address functions.
	cells, err := env.cells(env.warmID)
	if err != nil {
		return nil, err
	}
	probeParams := env.params
	if lastFresh != 0 {
		probeParams.MaxCommitted = lastFresh
	}
	progs, order := buildSuite()
	if err := probeLayers(out, probeInputs{params: probeParams, progs: progs, order: order}); err != nil {
		return nil, err
	}
	if err := storeProbes(out, rc, cells, env.params, env.srv.Store()); err != nil {
		return nil, err
	}

	attempted, failed, selfOK, sum, err := checkServed(append(plain, traced...))
	if err != nil {
		return nil, err
	}
	rc.info["output_sha256"] = sum
	rc.info["self_test"] = selfOK
	return &result{Correct: failed == 0 && selfOK, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

// cells fetches a job's cell dump through the API.
func (e *servedEnv) cells(id string) (map[string]experiments.CellResult, error) {
	resp, err := e.client.Get(e.srv.URL() + "/v1/jobs/" + id + "/cells")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cells of %s: %s", id, resp.Status)
	}
	return experiments.UnmarshalCells(data)
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/emu"
	"specctrl/internal/experiments"
	"specctrl/internal/gating"
	"specctrl/internal/isa"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
	"specctrl/internal/replay"
	"specctrl/internal/runner"
	"specctrl/internal/serve"
)

// probeCommitted is the run length of the emu, pipeline and gating
// probes: long enough to leave warm-up behind, short enough that the
// probes stay a small part of a traced run.
const probeCommitted = 200_000

// probeReps is how often a replay probe repeats; it reports the median.
const probeReps = 3

// probeInputs is what a workload produced for the probes to reuse.
type probeInputs struct {
	// params carries the workload's own trace caches and scale; the
	// probes find its traces through the public address functions.
	params experiments.Params
	progs  map[string]*isa.Program
	order  []string
}

// probeLayers adds every simulator-layer probe metric to m. A probe
// whose inputs the workload did not produce (no arch traces on
// speculation-control, for example) reports 0: that layer did no work
// there. The store probes are served-mix's own (storeProbes).
func probeLayers(m map[string]metric, in probeInputs) error {
	archProbes(m, in)
	eventProbes(m, in)
	return simProbes(m, in)
}

// timeIt returns the median wall time of reps calls to f.
func timeIt(reps int, f func()) time.Duration {
	var ds []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds))
}

// archTraces fetches the workload's committed branch streams from its
// own arch cache.
func archTraces(in probeInputs) []*replay.ArchTrace {
	if in.params.ArchCache == nil {
		return nil
	}
	var ts []*replay.ArchTrace
	for _, w := range in.order {
		if t, ok := in.params.ArchCache.Get(in.params.ArchTraceAddress(w)); ok {
			ts = append(ts, t)
		}
	}
	return ts
}

// aucSet is the auc experiment's estimator list: four families of
// sixteen thresholds each.
func aucSet() []conf.Estimator {
	var es []conf.Estimator
	for t := 1; t <= 16; t++ {
		es = append(es, conf.NewJRS(conf.JRSConfig{Entries: 4096, Bits: 4, Threshold: t, Enhanced: true}))
	}
	for t := 1; t <= 16; t++ {
		es = append(es, conf.NewOnesCount(conf.OnesCountConfig{Entries: 4096, Bits: 16, Threshold: t, Enhanced: true}))
	}
	for t := 0; t <= 15; t++ {
		es = append(es, conf.NewDistance(t))
	}
	for t := 1; t <= 16; t++ {
		es = append(es, conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 64, Bits: 16, Threshold: t}))
	}
	return es
}

// archProbes times replay.ArchReplay over the workload's arch traces:
// with no estimator (the predictor alone), with one estimator (minus
// the predictor-only time), and with the auc set.
func archProbes(m map[string]metric, in probeInputs) {
	ts := archTraces(in)
	branches := 0
	for _, t := range ts {
		branches += t.Branches()
	}
	perBranch := func(reps int, pred func() bpred.Predictor, ests func() []conf.Estimator) float64 {
		if branches == 0 {
			return 0
		}
		d := timeIt(reps, func() {
			for _, t := range ts {
				replay.ArchReplay(t, pred(), ests())
			}
		})
		return float64(d.Nanoseconds()) / float64(branches)
	}
	p := in.params
	none := func() []conf.Estimator { return nil }
	for _, spec := range experiments.AllPredictors() {
		spec := spec
		m["bpred.ns_per_branch."+spec.Name] = metric{perBranch(probeReps, func() bpred.Predictor { return spec.New(p) }, none), "ns"}
	}
	gshare := func() bpred.Predictor { return experiments.GshareSpec().New(p) }
	predOnly := m["bpred.ns_per_branch.gshare"].Value
	one := map[string]func() conf.Estimator{
		"jrs":    func() conf.Estimator { return conf.NewJRS(conf.DefaultJRS) },
		"satcnt": func() conf.Estimator { return conf.SatCounters{} },
		"cir": func() conf.Estimator {
			return conf.NewOnesCount(conf.OnesCountConfig{Entries: 4096, Bits: 16, Threshold: 16, Enhanced: true})
		},
		"pattern": func() conf.Estimator { return conf.NewPatternHistory(p.GshareBits) },
	}
	for name, mk := range one {
		mk := mk
		v := perBranch(probeReps, gshare, func() []conf.Estimator { return []conf.Estimator{mk()} })
		m["conf.ns_per_branch."+name] = metric{nonNeg(v - predOnly), "ns"}
	}
	// The auc set costs about fifty times one estimator, so it is timed
	// on the first trace alone, against that trace's predictor-only time.
	var auc float64
	if len(ts) > 0 {
		first := ts[:1]
		n := float64(first[0].Branches())
		alone := timeIt(probeReps, func() { replay.ArchReplay(first[0], gshare(), nil) })
		set := timeIt(1, func() { replay.ArchReplay(first[0], gshare(), aucSet()) })
		auc = nonNeg(float64((set - alone).Nanoseconds()) / n)
	}
	m["conf.ns_per_branch.auc_set"] = metric{auc, "ns"}
	m["replay.arch_replay_ns_per_branch"] = metric{perBranch(probeReps, gshare, func() []conf.Estimator {
		return []conf.Estimator{conf.NewJRS(conf.DefaultJRS), conf.SatCounters{}}
	}), "ns"}
}

// nonNeg clamps a difference of two timings, which noise can push
// below zero when the estimator costs next to nothing.
func nonNeg(v float64) float64 { return max(v, 0) }

// eventProbes times replay.Replay over the workload's gshare event
// traces with the JRS and saturating-counter estimators.
func eventProbes(m map[string]metric, in probeInputs) {
	var ts []*replay.Trace
	if in.params.TraceCache != nil {
		for _, w := range in.order {
			if t, _, ok := in.params.TraceCache.Get(in.params.TraceAddress(w, experiments.GshareSpec())); ok {
				ts = append(ts, t)
			}
		}
	}
	events := 0
	for _, t := range ts {
		events += t.Events()
	}
	v := 0.0
	if events > 0 {
		d := timeIt(probeReps, func() {
			for _, t := range ts {
				replay.Replay(t, []conf.Estimator{conf.NewJRS(conf.DefaultJRS), conf.SatCounters{}})
			}
		})
		v = float64(d.Nanoseconds()) / float64(events)
	}
	m["replay.events_replay_ns_per_event"] = metric{v, "ns"}
}

// simProbes times the emulator, the cycle simulator under three
// configurations, and a gating baseline+gated pair, over the suite
// programs the workload built.
func simProbes(m map[string]metric, in probeInputs) error {
	var emuNs, emuInstr float64
	for _, w := range in.order {
		mach := emu.NewMachine(in.progs[w])
		start := time.Now()
		n, _ := mach.Run(probeCommitted) // stops at the limit: the programs loop far longer
		emuNs += float64(time.Since(start).Nanoseconds())
		emuInstr += float64(n)
	}
	m["emu.ns_per_instr"] = metric{ratio(emuNs, emuInstr), "ns"}

	p := in.params
	cfg := p.Pipeline
	cfg.MaxCommitted = probeCommitted
	gate := policy.Gating{Threshold: 2}
	configs := []struct {
		name string
		ests func() []conf.Estimator
		pol  pipeline.Policy
	}{
		{"pipeline.ns_per_cycle", func() []conf.Estimator { return nil }, nil},
		{"pipeline.ns_per_cycle.est", func() []conf.Estimator {
			return []conf.Estimator{conf.NewJRS(conf.DefaultJRS), conf.SatCounters{}}
		}, nil},
		{"pipeline.ns_per_cycle.gate", func() []conf.Estimator {
			return []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
		}, gate},
	}
	var gatedNs float64
	for _, c := range configs {
		var ns, cycles float64
		for _, w := range in.order {
			cc := cfg
			cc.Estimators = c.ests()
			cc.Policy = c.pol
			sim, err := pipeline.New(cc, in.progs[w], bpred.NewGshare(p.GshareBits))
			if err != nil {
				return fmt.Errorf("probe %s: %w", c.name, err)
			}
			start := time.Now()
			st, err := sim.Run()
			if err != nil {
				return fmt.Errorf("probe %s: %w", c.name, err)
			}
			ns += float64(time.Since(start).Nanoseconds())
			cycles += float64(st.Cycles)
		}
		m[c.name] = metric{ratio(ns, cycles), "ns"}
		if c.pol != nil {
			gatedNs = ns
		}
	}

	var pairNs float64
	f := policy.Factories{
		Predictor: func() bpred.Predictor { return bpred.NewGshare(p.GshareBits) },
		Estimator: func() conf.Estimator { return conf.NewJRS(conf.DefaultJRS) },
		Policy:    func() pipeline.Policy { return gate },
	}
	for _, w := range in.order {
		start := time.Now()
		if _, err := gating.Run(gating.Config{Threshold: gate.Threshold, Pipeline: cfg}, in.progs[w], f); err != nil {
			return fmt.Errorf("probe gating: %w", err)
		}
		pairNs += float64(time.Since(start).Nanoseconds())
	}
	m["gating.pair_over_run"] = metric{ratio(pairNs, gatedNs), "ratio"}
	return nil
}

// specOf rebuilds a grid spec from its key
// (experiment/workload/predictor/variant; the variant may hold
// slashes).
func specOf(key string) (runner.Spec, error) {
	parts := strings.SplitN(key, "/", 4)
	if len(parts) != 4 {
		return runner.Spec{}, fmt.Errorf("malformed cell key %q", key)
	}
	return runner.Spec{Experiment: parts[0], Workload: parts[1], Predictor: parts[2], Variant: parts[3]}, nil
}

// storeProbes times serve.Store.Put of the served workload's own
// cells, addressed through Params.CellAddress, into a probe store under
// the run's scratch directory, then Lookup of each from the server's
// store, which already holds them.
func storeProbes(m map[string]metric, rc *runConfig, cells map[string]experiments.CellResult, p experiments.Params, store *serve.Store) error {
	keys := sortedKeys(cells)
	if len(keys) == 0 {
		return fmt.Errorf("store probe: no cells")
	}
	dir := filepath.Join(rc.scratch, "probe-store")
	defer os.RemoveAll(dir)
	st, err := serve.NewStore(dir, nil)
	if err != nil {
		return err
	}
	addrs := make([]string, len(keys))
	var putUs, lookUs []float64
	for i, k := range keys {
		sp, err := specOf(k)
		if err != nil {
			return err
		}
		addrs[i] = p.CellAddress(sp)
		start := time.Now()
		if err := st.Put(addrs[i], cells[k]); err != nil {
			return err
		}
		putUs = append(putUs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	for i, a := range addrs {
		start := time.Now()
		if _, ok := store.Lookup(a); !ok {
			return fmt.Errorf("store probe: cell %s not found at its address", keys[i])
		}
		lookUs = append(lookUs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m["serve.store_put_us"] = metric{median(putUs), "us"}
	m["serve.store_lookup_us"] = metric{median(lookUs), "us"}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

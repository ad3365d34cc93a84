// Command simtrace works with workload programs and branch streams:
// disassemble a benchmark, record a run's speculative branch events
// (the paper's §3.1 instrumentation) as JSONL or its committed branch
// stream as an SPAT file, or summarize a recorded JSONL stream without
// re-simulating.
//
// Usage:
//
//	simtrace -w compress -dis                          # disassemble
//	simtrace -w gcc -record-jsonl /tmp/gcc.jsonl -committed 500000
//	simtrace -w gcc -record-branches /tmp/gcc.spat    # ingestable via -ingest-trace
//	simtrace -summarize /tmp/gcc.jsonl
//
// Recording streams events through the simulator's obs.Tracer hook —
// the JSONL writer and the committed-stream recorder (see
// docs/WORKLOADS.md) are sinks on the same stream and can run
// simultaneously. Like simctrl, long recordings accept -progress and
// -metrics-addr for live observation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"specctrl/internal/bpred"
	"specctrl/internal/cliflags"
	"specctrl/internal/conf"
	"specctrl/internal/isa"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/pipeline"
	"specctrl/internal/replay"
	"specctrl/internal/synth"
	"specctrl/internal/workload"
)

func main() {
	var (
		wname       = flag.String("w", "", "workload name (see -listw)")
		listw       = flag.Bool("listw", false, "list workloads")
		dis         = flag.Bool("dis", false, "disassemble the workload")
		recordJSONL = flag.String("record-jsonl", "", "simulate and write JSONL branch events to this file")
		recordArch  = flag.String("record-branches", "", "simulate and write the committed branch stream as an SPAT file (load back with -ingest-trace)")
		summarizeF  = flag.String("summarize", "", "read a -record-jsonl file and print its summary")
		committed   = cliflags.Committed(flag.CommandLine, 500_000, "committed instructions to record")
		iters       = flag.Int("iters", 1<<30, "workload outer iterations")
		pred        = flag.String("pred", "gshare", "predictor to record with: gshare|mcfarling|sag")
		obsFlags    = cliflags.RegisterObs(flag.CommandLine)
		traceF      = cliflags.RegisterTrace(flag.CommandLine)
	)
	flag.Parse()

	switch {
	case *listw:
		for _, w := range workload.Suite() {
			fmt.Printf("%-9s %s\n", w.Name, w.Description)
		}
	case *summarizeF != "":
		if err := doSummarize(os.Stdout, *summarizeF); err != nil {
			fail(err)
		}
	case *dis:
		w, err := workload.ByName(*wname)
		if err != nil {
			fail(err)
		}
		p := w.Build(*iters)
		fmt.Printf("%s: %d instructions, %d data words\n\n",
			p.Name, len(p.Code), len(p.Data))
		fmt.Print(isa.Disassemble(p, nil))
	case *recordJSONL != "" || *recordArch != "":
		opts := recordOptions{
			workload:  *wname,
			predictor: *pred,
			jsonlPath: *recordJSONL,
			archPath:  *recordArch,
			committed: *committed,
			iters:     *iters,
			obs:       obsFlags,
			trace:     traceF,
		}
		if _, err := doRecord(opts); err != nil {
			fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "simtrace: nothing to do (try -listw, -dis, -record-jsonl, -record-branches, -summarize)")
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "simtrace: %v\n", err)
	os.Exit(1)
}

func newPredictor(name string) (bpred.Predictor, error) {
	switch name {
	case "gshare":
		return bpred.NewGshare(12), nil
	case "mcfarling":
		return bpred.NewMcFarling(12), nil
	case "sag":
		return bpred.NewSAg(11, 13), nil
	}
	return nil, fmt.Errorf("unknown predictor %q", name)
}

type recordOptions struct {
	workload, predictor string
	jsonlPath, archPath string
	committed           uint64
	iters               int
	obs                 cliflags.Obs
	trace               cliflags.Trace
}

// doRecord simulates one run with a JRS estimator attached, writes the
// requested recordings, and returns the run's statistics.
func doRecord(o recordOptions) (*pipeline.Stats, error) {
	w, err := workload.ByName(o.workload)
	if err != nil {
		return nil, err
	}
	pred, err := newPredictor(o.predictor)
	if err != nil {
		return nil, err
	}

	// Both sinks fan out from the simulator's tracer hook. The JSONL
	// file streams as the run goes; the committed stream is written
	// after the run, once it is known to be ingestable.
	var sinks []obs.Tracer
	var jsonlSink *obs.JSONL
	var jsonlFile *os.File
	if o.jsonlPath != "" {
		if jsonlFile, err = os.Create(o.jsonlPath); err != nil {
			return nil, err
		}
		defer jsonlFile.Close()
		jsonlSink = obs.NewJSONL(jsonlFile)
		sinks = append(sinks, jsonlSink)
	}
	var arch *replay.ArchRecorder
	if o.archPath != "" {
		arch = replay.NewArchRecorder()
		sinks = append(sinks, arch)
	}

	cfg := pipeline.DefaultConfig()
	cfg.MaxCommitted = o.committed
	cfg.Tracer = obs.MultiSink(sinks...)

	tracer := o.trace.NewTracer()
	started, err := o.obs.Start("simtrace", os.Stderr, tracer)
	if err != nil {
		return nil, err
	}
	defer started.Stop()
	if started.Registry != nil {
		cfg.Metrics = started.Registry
		cfg.MetricsLabels = obs.Labels{"workload": w.Name, "predictor": o.predictor}
	}
	if started.Run != nil {
		cfg.Progress = started.Run
		cfg.Progress.StartRun(w.Name+"/"+o.predictor, o.committed)
	}

	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	sim, err := pipeline.New(cfg, w.Build(o.iters), pred)
	if err != nil {
		return nil, err
	}
	rec := tracer.Root("record:"+w.Name+"/"+o.predictor,
		span.Str("workload", w.Name), span.Str("predictor", o.predictor))
	stats, runErr := sim.Run()
	rec.End()
	if runErr != nil {
		return nil, runErr
	}
	if t := cfg.Tracer; t != nil {
		if err := t.Close(); err != nil {
			return nil, err
		}
	}
	if jsonlSink != nil {
		if err := jsonlFile.Close(); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %d JSONL events to %s\n", jsonlSink.Count(), o.jsonlPath)
	}
	if arch != nil {
		arch.SetCommitted(stats.Committed)
		at := arch.Trace()
		// Refuse to write a file -ingest-trace would reject.
		if err := synth.CheckTrace(at); err != nil {
			return nil, fmt.Errorf("-record-branches: %w (shorten the run)", err)
		}
		data := at.Encode()
		if err := os.WriteFile(o.archPath, data, 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("wrote SPAT branch trace (%d branches, %d bytes) to %s; load with -ingest-trace\n",
			at.Branches(), len(data), o.archPath)
	}
	return stats, o.trace.Finish(tracer, "simtrace", os.Stderr)
}

// doSummarize reads a -record-jsonl stream, one obs.BranchEvent object
// per line, and prints its headline counts. Malformed input fails with
// the index of the bad event.
func doSummarize(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var events, committed, wrongPath, mispredict, lowConf int
	for ; ; events++ {
		var e obs.BranchEvent
		if err := dec.Decode(&e); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return fmt.Errorf("%s: event %d: %w", path, events, err)
		}
		if e.WrongPath {
			wrongPath++
			continue
		}
		committed++
		if e.Pred != e.Outcome {
			mispredict++
		}
		if !e.HighConf {
			lowConf++
		}
	}
	fmt.Fprintf(w, "events      %d\n", events)
	fmt.Fprintf(w, "committed   %d\n", committed)
	fmt.Fprintf(w, "wrong-path  %d\n", wrongPath)
	if committed > 0 {
		fmt.Fprintf(w, "mispredict  %d (%.1f%%)\n", mispredict,
			100*float64(mispredict)/float64(committed))
		fmt.Fprintf(w, "low-conf    %d (%.1f%%)\n", lowConf,
			100*float64(lowConf)/float64(committed))
	}
	return nil
}

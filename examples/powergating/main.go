// Powergating: demonstrate pipeline gating (§2.2 "Power conservation"):
// stall fetch while too many low-confidence branches are in flight, and
// measure how much wrong-path work disappears versus how much slower the
// program runs, across gating thresholds. Each program's unpolicied
// baseline is simulated once and anchors every threshold's gated run.
//
//	go run ./examples/powergating
package main

import (
	"fmt"
	"log"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/gating"
	"specctrl/internal/isa"
	"specctrl/internal/pipeline"
	"specctrl/internal/policy"
	"specctrl/internal/workload"
)

// simulate runs prog on a fresh gshare with a fresh JRS estimator under
// pol (nil runs unpolicied).
func simulate(cfg pipeline.Config, prog *isa.Program, pol pipeline.Policy) *pipeline.Stats {
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	cfg.Policy = pol
	sim, err := pipeline.New(cfg, prog, bpred.NewGshare(12))
	if err != nil {
		log.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	return st
}

// extraWork is wrong-path instructions per committed instruction.
func extraWork(st *pipeline.Stats) float64 {
	if st.Committed == 0 {
		return 0
	}
	return float64(st.WrongPath) / float64(st.Committed)
}

func main() {
	names := []string{"compress", "gcc", "go", "perl"}
	pcfg := pipeline.DefaultConfig()
	pcfg.MaxCommitted = 500_000

	progs := map[string]*isa.Program{}
	baselines := map[string]*pipeline.Stats{}
	for _, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			log.Fatal(err)
		}
		progs[n] = w.Build(1 << 30)
		baselines[n] = simulate(pcfg, progs[n], nil)
	}

	for thr := 1; thr <= 3; thr++ {
		fmt.Printf("Pipeline gating: estimator %s, threshold %d\n",
			conf.NewJRS(conf.DefaultJRS).Name(), thr)
		fmt.Printf("%-9s %11s %11s %10s %9s\n",
			"app", "extra-work", "gated-ew", "reduction", "slowdown")
		for _, n := range names {
			r := gating.Result{
				Baseline: baselines[n],
				Gated:    simulate(pcfg, progs[n], policy.Gating{Threshold: thr}),
			}
			fmt.Printf("%-9s %10.1f%% %10.1f%% %9.1f%% %8.2f%%\n",
				n, extraWork(r.Baseline)*100, extraWork(r.Gated)*100,
				r.ExtraWorkReduction()*100, r.Slowdown()*100)
		}
		fmt.Println()
	}
	fmt.Println("Reading the table: 'extra-work' is wrong-path instructions per")
	fmt.Println("committed instruction; gating trades a small slowdown for a large")
	fmt.Println("reduction — the trade sharpens as the estimator's PVN rises.")
}

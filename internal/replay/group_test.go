package replay

import (
	"reflect"
	"testing"

	"specctrl/internal/conf"
	"specctrl/internal/pipeline"
)

// scorerSweeps returns, per conf.Scorer family, a 4-threshold sweep of
// fresh estimators — listed out of threshold order, one with a repeated
// threshold — that pipeline.Bank scores as one threshold group.
func scorerSweeps() map[string]func() []conf.Estimator {
	return map[string]func() []conf.Estimator{
		"JRS": func() []conf.Estimator {
			var ests []conf.Estimator
			for _, th := range []int{12, 1, 15, 6} {
				ests = append(ests, conf.NewJRS(conf.JRSConfig{Entries: 1024, Bits: 4, Threshold: th, Enhanced: true}))
			}
			return ests
		},
		"CIR": func() []conf.Estimator {
			var ests []conf.Estimator
			for _, th := range []int{16, 4, 12, 12} {
				ests = append(ests, conf.NewOnesCount(conf.OnesCountConfig{Entries: 4096, Bits: 16, Threshold: th, Enhanced: true}))
			}
			return ests
		},
		"gMDC-CIR": func() []conf.Estimator {
			var ests []conf.Estimator
			for _, th := range []int{16, 4, 12, 8} {
				ests = append(ests, conf.NewGlobalMDCIndexed(conf.OnesCountConfig{Entries: 64, Bits: 16, Threshold: th}))
			}
			return ests
		},
		"Distance": func() []conf.Estimator {
			var ests []conf.Estimator
			for _, th := range []int{3, 0, 7, 1} {
				ests = append(ests, conf.NewDistance(th))
			}
			return ests
		},
	}
}

// TestGroupedSweepMatchesSingletons: at every drive site — direct
// simulation, event replay and arch replay — a threshold sweep scored as
// one group must give each member exactly the statistics it gets in a
// run of its own. A single estimator is never grouped, so the
// one-estimator runs are an independent reference for the group path.
func TestGroupedSweepMatchesSingletons(t *testing.T) {
	const predName = "gshare"
	tr, _ := recordRun(t, predName)
	arch := archRecordRun(t, predName)
	sites := map[string]func([]conf.Estimator) []pipeline.ConfStats{
		"direct": func(ests []conf.Estimator) []pipeline.ConfStats {
			return directRun(t, predName, ests).Confidence
		},
		"events": func(ests []conf.Estimator) []pipeline.ConfStats { return Replay(tr, ests) },
		"arch": func(ests []conf.Estimator) []pipeline.ConfStats {
			return ArchReplay(arch, testPred(t, predName), ests)
		},
	}
	for family, sweep := range scorerSweeps() {
		for site, eval := range sites {
			t.Run(family+"/"+site, func(t *testing.T) {
				grouped := eval(sweep())
				for i, e := range sweep() {
					single := eval([]conf.Estimator{e})
					if !reflect.DeepEqual(grouped[i], single[0]) {
						t.Errorf("%s: grouped %+v\n  != single %+v", e.Name(), grouped[i], single[0])
					}
				}
			})
		}
	}
}

package conf

import (
	"fmt"

	"specctrl/internal/bpred"
)

// Distance is the paper's misprediction-distance estimator (§4.1):
// effectively a JRS estimator collapsed to a *single* global miss
// distance counter. It exploits the clustering of branch mispredictions —
// branches fetched shortly after a detected misprediction are much more
// likely to be mispredicted themselves — so a branch is high confidence
// only when more than Threshold branches have been fetched since the
// last *resolved* misprediction.
//
// The counter advances on every fetched conditional branch (Estimate is
// called for wrong-path branches too; a real implementation counts
// fetched branches, not committed ones) and resets when a misprediction
// is detected at resolution.
type Distance struct {
	// Threshold: high confidence when the distance is > Threshold.
	Threshold int
	count     int
}

// NewDistance returns a distance estimator; it panics on negative
// thresholds.
func NewDistance(threshold int) *Distance {
	if threshold < 0 {
		panic(fmt.Sprintf("conf: negative distance threshold %d", threshold))
	}
	return &Distance{Threshold: threshold}
}

// Name implements Estimator.
func (d *Distance) Name() string { return fmt.Sprintf("Dist(>%d)", d.Threshold) }

// Estimate implements Estimator: classify this branch by the current
// distance, then count it.
func (d *Distance) Estimate(pc int64, info bpred.Info) bool {
	return d.Score(pc, info) >= d.Cut()
}

// Score implements Scorer: the current distance, which the call then
// advances past this branch.
func (d *Distance) Score(pc int64, info bpred.Info) int {
	n := d.count
	d.count++
	return n
}

// Cut implements Scorer: high confidence means a distance above
// Threshold.
func (d *Distance) Cut() int { return d.Threshold + 1 }

// Table implements Scorer: every Distance shares one key, since its
// single global counter does not depend on the threshold.
func (d *Distance) Table() TableKey { return TableKey{family: "Dist"} }

// Resolve implements Estimator: a detected misprediction resets the
// global counter.
func (d *Distance) Resolve(pc int64, info bpred.Info, correct bool) {
	if !correct {
		d.count = 0
	}
}

// Count exposes the current distance (for tests and diagnostics).
func (d *Distance) Count() int { return d.count }

// Boost wraps another estimator and signals low confidence only after K
// consecutive low-confidence estimates from the inner estimator (§4.2).
// Approximating estimates as Bernoulli trials, the PVN of the boosted
// low-confidence signal is about 1-(1-PVN)^K — but the signal describes
// the state of the *pipeline* (at least one of the K branches is likely
// wrong), not any single branch, so only applications like thread
// switching that act on pipeline state can use it.
type Boost struct {
	Inner Estimator
	// K is the required run length of low-confidence estimates.
	K   int
	run int
}

// NewBoost wraps inner with a K-deep booster; it panics when K < 1.
func NewBoost(inner Estimator, k int) *Boost {
	if k < 1 {
		panic(fmt.Sprintf("conf: boost depth %d < 1", k))
	}
	return &Boost{Inner: inner, K: k}
}

// Name implements Estimator.
func (b *Boost) Name() string { return fmt.Sprintf("Boost(%s,k=%d)", b.Inner.Name(), b.K) }

// Estimate implements Estimator.
func (b *Boost) Estimate(pc int64, info bpred.Info) bool {
	if b.Inner.Estimate(pc, info) {
		b.run = 0
		return true
	}
	b.run++
	if b.run >= b.K {
		b.run = 0
		return false
	}
	return true
}

// Resolve implements Estimator: forwarded to the inner estimator.
func (b *Boost) Resolve(pc int64, info bpred.Info, correct bool) {
	b.Inner.Resolve(pc, info, correct)
}

// Always is a reference estimator that reports a fixed confidence for
// every branch: Always{true} marks everything high confidence (its PVN
// is undefined and its SENS is 1), Always{false} marks everything low
// confidence (its PVN equals the misprediction rate — the paper's
// "threshold 16" end point).
type Always struct {
	High bool
}

// Name implements Estimator.
func (a Always) Name() string {
	if a.High {
		return "AlwaysHC"
	}
	return "AlwaysLC"
}

// Estimate implements Estimator.
func (a Always) Estimate(pc int64, info bpred.Info) bool { return a.High }

// Resolve implements Estimator.
func (a Always) Resolve(pc int64, info bpred.Info, correct bool) {}

package conf

import (
	"math/rand"
	"testing"

	"specctrl/internal/bpred"
)

// scorerFamilies builds one instance of every Scorer family at the
// given threshold; all other configuration is fixed.
func scorerFamilies(threshold int) []Scorer {
	return []Scorer{
		NewJRS(JRSConfig{Entries: 64, Bits: 4, Threshold: threshold, Enhanced: true}),
		NewOnesCount(OnesCountConfig{Entries: 64, Bits: 8, Threshold: threshold, Enhanced: true}),
		NewGlobalMDCIndexed(OnesCountConfig{Entries: 16, Bits: 8, Threshold: threshold}),
		NewDistance(threshold),
	}
}

// TestScorerContract drives one instance of each family through
// Estimate and a twin through Score over the same seeded stream —
// fetches resolved in order after a random lag, as the pipeline does —
// and requires Estimate == (Score >= Cut) on every branch.
func TestScorerContract(t *testing.T) {
	for _, threshold := range []int{0, 3, 8} {
		est, sc := scorerFamilies(threshold), scorerFamilies(threshold)
		for f := range est {
			rng := rand.New(rand.NewSource(int64(threshold)))
			type fetched struct {
				pc      int64
				info    bpred.Info
				correct bool
			}
			var pending []fetched
			for n := 0; n < 20000; n++ {
				pc := int64(rng.Intn(32))
				info := bpred.Info{Pred: rng.Intn(2) == 0, Hist: uint64(rng.Intn(8))}
				want := est[f].Estimate(pc, info)
				if got := sc[f].Score(pc, info) >= sc[f].Cut(); got != want {
					t.Fatalf("%s branch %d: Score >= Cut is %v, Estimate %v", est[f].Name(), n, got, want)
				}
				// Mostly-correct outcomes, so the tables climb past every
				// threshold between mispredictions.
				pending = append(pending, fetched{pc, info, rng.Intn(8) != 0})
				for len(pending) > rng.Intn(4) {
					r := pending[0]
					pending = pending[1:]
					est[f].Resolve(r.pc, r.info, r.correct)
					sc[f].Resolve(r.pc, r.info, r.correct)
				}
			}
		}
	}
}

// TestScorerTableKeys: Table keys are equal exactly when two instances
// differ only in threshold — never across families, never across any
// other configuration field.
func TestScorerTableKeys(t *testing.T) {
	a, b := scorerFamilies(2), scorerFamilies(7)
	for i := range a {
		for j := range b {
			if eq := a[i].Table() == b[j].Table(); eq != (i == j) {
				t.Errorf("%s vs %s: Table keys equal = %v, want %v", a[i].Name(), b[j].Name(), eq, i == j)
			}
		}
	}
	jrs := JRSConfig{Entries: 64, Bits: 4, Threshold: 2}
	cir := OnesCountConfig{Entries: 64, Bits: 8, Threshold: 2}
	for _, other := range []Scorer{
		NewJRS(JRSConfig{Entries: 128, Bits: 4, Threshold: 2}),
		NewJRS(JRSConfig{Entries: 64, Bits: 5, Threshold: 2}),
		NewJRS(JRSConfig{Entries: 64, Bits: 4, Threshold: 2, Enhanced: true}),
	} {
		if NewJRS(jrs).Table() == other.Table() {
			t.Errorf("JRS %+v shares a table key with %s", jrs, other.Name())
		}
	}
	for _, other := range []OnesCountConfig{
		{Entries: 32, Bits: 8, Threshold: 2},
		{Entries: 64, Bits: 9, Threshold: 2},
		{Entries: 64, Bits: 8, Threshold: 2, Enhanced: true},
	} {
		if NewOnesCount(cir).Table() == NewOnesCount(other).Table() {
			t.Errorf("CIR %+v shares a table key with %+v", cir, other)
		}
		if NewGlobalMDCIndexed(cir).Table() == NewGlobalMDCIndexed(other).Table() {
			t.Errorf("gMDC-CIR %+v shares a table key with %+v", cir, other)
		}
	}
}

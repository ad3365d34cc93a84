package conf

import (
	"strings"
	"testing"
	"testing/quick"

	"specctrl/internal/bpred"
)

func info(pred bool, hist uint64) bpred.Info {
	return bpred.Info{Pred: pred, Hist: hist}
}

func TestJRSThresholdBehaviour(t *testing.T) {
	j := NewJRS(JRSConfig{Entries: 64, Bits: 4, Threshold: 3})
	in := info(true, 0)
	pc := int64(5)
	if j.Estimate(pc, in) {
		t.Error("fresh counter should be low confidence")
	}
	for i := 0; i < 3; i++ {
		j.Resolve(pc, in, true)
	}
	if !j.Estimate(pc, in) {
		t.Error("counter at threshold should be high confidence")
	}
}

func TestJRSResetOnMisprediction(t *testing.T) {
	j := NewJRS(JRSConfig{Entries: 64, Bits: 4, Threshold: 2})
	in := info(true, 0)
	pc := int64(9)
	for i := 0; i < 10; i++ {
		j.Resolve(pc, in, true)
	}
	if !j.Estimate(pc, in) {
		t.Fatal("saturated counter should be high confidence")
	}
	j.Resolve(pc, in, false)
	if j.Estimate(pc, in) {
		t.Error("counter not reset by misprediction")
	}
	if j.Score(pc, in) != 0 {
		t.Errorf("counter = %d after reset", j.Score(pc, in))
	}
}

func TestJRSSaturates(t *testing.T) {
	j := NewJRS(JRSConfig{Entries: 64, Bits: 4, Threshold: 15})
	in := info(false, 7)
	pc := int64(3)
	for i := 0; i < 100; i++ {
		j.Resolve(pc, in, true)
	}
	if j.Score(pc, in) != 15 {
		t.Errorf("counter = %d, want saturated 15", j.Score(pc, in))
	}
}

func TestJRSUnreachableThresholdAlwaysLC(t *testing.T) {
	j := NewJRS(JRSConfig{Entries: 64, Bits: 4, Threshold: 16})
	in := info(true, 0)
	for i := 0; i < 100; i++ {
		j.Resolve(1, in, true)
	}
	if j.Estimate(1, in) {
		t.Error("threshold 16 must label everything low confidence")
	}
}

func TestJRSEnhancedSeparatesPredictions(t *testing.T) {
	// With enhanced indexing, the same (pc, hist) with different
	// predicted directions must use different counters.
	j := NewJRS(JRSConfig{Entries: 64, Bits: 4, Threshold: 1, Enhanced: true})
	pc := int64(12)
	taken := info(true, 0x3a)
	notTaken := info(false, 0x3a)
	j.Resolve(pc, taken, true)
	if !j.Estimate(pc, taken) {
		t.Error("trained direction should be high confidence")
	}
	if j.Estimate(pc, notTaken) {
		t.Error("untrained direction should remain low confidence")
	}
	// Base indexing shares one counter for both directions.
	base := NewJRS(JRSConfig{Entries: 64, Bits: 4, Threshold: 1, Enhanced: false})
	base.Resolve(pc, taken, true)
	if !base.Estimate(pc, notTaken) {
		t.Error("base JRS should share the counter across directions")
	}
}

func TestJRSIndexUsesHistory(t *testing.T) {
	j := NewJRS(JRSConfig{Entries: 64, Bits: 4, Threshold: 1})
	pc := int64(0)
	j.Resolve(pc, info(true, 1), true)
	if j.Estimate(pc, info(true, 2)) {
		t.Error("different history should map to a different counter")
	}
}

func TestJRSConfigValidate(t *testing.T) {
	bad := []JRSConfig{
		{Entries: 0, Bits: 4, Threshold: 1},
		{Entries: 3, Bits: 4, Threshold: 1},
		{Entries: 64, Bits: 0, Threshold: 1},
		{Entries: 64, Bits: 17, Threshold: 1},
		{Entries: 64, Bits: 4, Threshold: -1},
		{Entries: 64, Bits: 4, Threshold: 17},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := DefaultJRS.Validate(); err != nil {
		t.Errorf("DefaultJRS invalid: %v", err)
	}
}

func TestSatCountersStrength(t *testing.T) {
	e := SatCounters{}
	for c, want := range map[bpred.Counter2]bool{0: true, 1: false, 2: false, 3: true} {
		got := e.Estimate(0, bpred.Info{C1: c})
		if got != want {
			t.Errorf("counter %d: estimate = %v, want %v", c, got, want)
		}
	}
}

func TestMcFarlingVariants(t *testing.T) {
	both := SatCountersMcFarling{Variant: BothStrong}
	either := SatCountersMcFarling{Variant: EitherStrong}
	cases := []struct {
		c1, c2     bpred.Counter2
		p1, p2     bool
		wantBoth   bool
		wantEither bool
	}{
		{3, 3, true, true, true, true},    // both strong, agree
		{0, 0, false, false, true, true},  // both strong NT, agree
		{3, 0, true, false, false, true},  // both strong, disagree
		{3, 2, true, true, false, true},   // one strong
		{1, 2, false, true, false, false}, // both weak
	}
	for i, c := range cases {
		in := bpred.Info{C1: c.c1, C2: c.c2, P1: c.p1, P2: c.p2}
		if got := both.Estimate(0, in); got != c.wantBoth {
			t.Errorf("case %d BothStrong = %v, want %v", i, got, c.wantBoth)
		}
		if got := either.Estimate(0, in); got != c.wantEither {
			t.Errorf("case %d EitherStrong = %v, want %v", i, got, c.wantEither)
		}
	}
}

// Property: BothStrong high confidence implies EitherStrong high
// confidence (BothStrong is strictly more selective).
func TestBothStrongSubsetOfEitherStrong(t *testing.T) {
	both := SatCountersMcFarling{Variant: BothStrong}
	either := SatCountersMcFarling{Variant: EitherStrong}
	f := func(c1, c2 uint8, p1, p2 bool) bool {
		in := bpred.Info{C1: bpred.Counter2(c1 % 4), C2: bpred.Counter2(c2 % 4), P1: p1, P2: p2}
		if both.Estimate(0, in) {
			return either.Estimate(0, in)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPatternHistoryConfidentSet(t *testing.T) {
	p := NewPatternHistory(8)
	confident := []uint64{
		0xff,       // always taken
		0x00,       // always not-taken
		0xfe, 0xf7, // one zero
		0x01, 0x10, // one one
		0x55, 0xaa, // alternating
	}
	for _, h := range confident {
		if !p.Confident(h) {
			t.Errorf("pattern %08b should be confident", h)
		}
	}
	notConfident := []uint64{0xcc, 0x0f, 0x33, 0b10010110}
	for _, h := range notConfident {
		if p.Confident(h) {
			t.Errorf("pattern %08b should not be confident", h)
		}
	}
}

func TestPatternHistoryMasksHighBits(t *testing.T) {
	p := NewPatternHistory(4)
	// Bits above the history length must be ignored.
	if !p.Confident(0xf0f) { // low nibble 0xf = always taken
		t.Error("high bits not masked")
	}
}

// Property: the confident-pattern count grows linearly with history
// length (2 all-same + 2·(k choose 1 shapes) + 2 alternating), so the
// fraction of confident patterns collapses as 2^-k — the reason the
// estimator marks almost everything low confidence under long global
// histories.
func TestPatternConfidentFractionShrinks(t *testing.T) {
	count := func(bits uint) int {
		p := NewPatternHistory(bits)
		n := 0
		for h := uint64(0); h < 1<<bits; h++ {
			if p.Confident(h) {
				n++
			}
		}
		return n
	}
	if c := count(4); c != 2+4+4+2 {
		// k=4: all-0, all-1, four one-zero, four one-one, 0101, 1010.
		t.Errorf("confident patterns for 4 bits = %d, want 12", c)
	}
	c8, c12 := count(8), count(12)
	if c8 != 2+8+8+2 || c12 != 2+12+12+2 {
		t.Errorf("confident counts: 8b=%d 12b=%d", c8, c12)
	}
	frac8 := float64(c8) / 256
	frac12 := float64(c12) / 4096
	if frac12 >= frac8 {
		t.Error("confident fraction should shrink with history length")
	}
}

func TestStaticEstimator(t *testing.T) {
	s := Static{HighConfidence: map[int64]bool{100: true}, Threshold: 0.9}
	if !s.Estimate(100, bpred.Info{}) {
		t.Error("profiled site should be high confidence")
	}
	if s.Estimate(200, bpred.Info{}) {
		t.Error("unprofiled site should be low confidence")
	}
	if !strings.Contains(s.Name(), "90") {
		t.Errorf("Name = %q should mention the threshold", s.Name())
	}
}

func TestDistanceCountsAndResets(t *testing.T) {
	d := NewDistance(2)
	in := info(true, 0)
	// Distances 0,1,2 are low confidence; >2 high.
	want := []bool{false, false, false, true, true}
	for i, w := range want {
		if got := d.Estimate(0, in); got != w {
			t.Errorf("branch %d: estimate = %v, want %v", i, got, w)
		}
	}
	d.Resolve(0, in, false) // detected misprediction resets
	if d.Count() != 0 {
		t.Errorf("count after reset = %d", d.Count())
	}
	if d.Estimate(0, in) {
		t.Error("first branch after reset should be low confidence")
	}
	d.Resolve(0, in, true) // correct resolution does not reset
	if d.Count() != 1 {
		t.Errorf("count after correct resolve = %d", d.Count())
	}
}

func TestDistanceThresholdZero(t *testing.T) {
	d := NewDistance(0)
	in := info(true, 0)
	if d.Estimate(0, in) {
		t.Error("distance 0 with threshold 0 must be low confidence (0 > 0 is false)")
	}
	if !d.Estimate(0, in) {
		t.Error("distance 1 with threshold 0 must be high confidence")
	}
}

func TestBoostRequiresRun(t *testing.T) {
	b := NewBoost(Always{High: false}, 3)
	in := info(true, 0)
	got := []bool{}
	for i := 0; i < 7; i++ {
		got = append(got, b.Estimate(0, in))
	}
	// Runs of 3 LC: indices 2 and 5 fire (run resets after firing).
	want := []bool{true, true, false, true, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("boost estimate %d = %v, want %v (%v)", i, got[i], want[i], got)
		}
	}
}

func TestBoostResetsOnHighConfidence(t *testing.T) {
	inner := &scripted{seq: []bool{false, false, true, false, false, false}}
	b := NewBoost(inner, 3)
	in := info(true, 0)
	var got []bool
	for range inner.seq {
		got = append(got, b.Estimate(0, in))
	}
	want := []bool{true, true, true, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("boost estimate %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// scripted replays a fixed estimate sequence (test double).
type scripted struct {
	seq []bool
	i   int
	res int
}

func (s *scripted) Name() string { return "scripted" }
func (s *scripted) Estimate(pc int64, info bpred.Info) bool {
	v := s.seq[s.i%len(s.seq)]
	s.i++
	return v
}
func (s *scripted) Resolve(pc int64, info bpred.Info, correct bool) { s.res++ }

func TestBoostForwardsResolve(t *testing.T) {
	inner := &scripted{seq: []bool{true}}
	b := NewBoost(inner, 2)
	b.Resolve(0, info(true, 0), true)
	if inner.res != 1 {
		t.Error("Resolve not forwarded to inner estimator")
	}
}

func TestAlwaysEstimators(t *testing.T) {
	if !(Always{High: true}).Estimate(0, bpred.Info{}) {
		t.Error("AlwaysHC returned low confidence")
	}
	if (Always{High: false}).Estimate(0, bpred.Info{}) {
		t.Error("AlwaysLC returned high confidence")
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"jrs":      func() { NewJRS(JRSConfig{}) },
		"pattern":  func() { NewPatternHistory(0) },
		"distance": func() { NewDistance(-1) },
		"boost":    func() { NewBoost(Always{}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s constructor accepted invalid input", name)
				}
			}()
			f()
		}()
	}
}

func TestNames(t *testing.T) {
	ests := []Estimator{
		NewJRS(DefaultJRS),
		NewJRS(JRSConfig{Entries: 64, Bits: 4, Threshold: 7}),
		SatCounters{},
		SatCountersMcFarling{Variant: BothStrong},
		SatCountersMcFarling{Variant: EitherStrong},
		NewPatternHistory(13),
		Static{Threshold: 0.9},
		NewDistance(4),
		NewBoost(NewDistance(1), 2),
		Always{High: true},
		Always{High: false},
	}
	seen := map[string]bool{}
	for _, e := range ests {
		n := e.Name()
		if n == "" {
			t.Error("empty estimator name")
		}
		if seen[n] {
			t.Errorf("duplicate estimator name %q", n)
		}
		seen[n] = true
	}
}

func BenchmarkJRSEstimateResolve(b *testing.B) {
	j := NewJRS(DefaultJRS)
	in := info(true, 0x5a5)
	for i := 0; i < b.N; i++ {
		pc := int64(i & 0xffff)
		_ = j.Estimate(pc, in)
		j.Resolve(pc, in, i&7 != 0)
	}
}

func BenchmarkDistanceEstimate(b *testing.B) {
	d := NewDistance(4)
	in := info(true, 0)
	for i := 0; i < b.N; i++ {
		_ = d.Estimate(0, in)
		if i&15 == 0 {
			d.Resolve(0, in, false)
		}
	}
}

package conf

import "testing"

// TestIdentityCompleteness: JRS estimators that share a Name() but
// differ in table geometry have different identities, equal
// configurations have equal identities, and estimators outside the
// identified set are unidentifiable.
func TestIdentityCompleteness(t *testing.T) {
	small := DefaultJRS
	small.Entries = 256
	narrow := DefaultJRS
	narrow.Bits = 5
	for _, cfg := range []JRSConfig{small, narrow} {
		a, b := NewJRS(DefaultJRS), NewJRS(cfg)
		if a.Name() != b.Name() {
			t.Fatalf("precondition: %q and %q differ in name", a.Name(), b.Name())
		}
		ida, idb := mustIdentity(t, a), mustIdentity(t, b)
		if ida == idb {
			t.Errorf("%s: two configurations share identity %q", a.Name(), ida)
		}
		if again := mustIdentity(t, NewJRS(DefaultJRS)); again != ida {
			t.Errorf("%s: identity not stable", a.Name())
		}
	}

	if x, y := mustIdentity(t, NewDistance(3)), mustIdentity(t, NewDistance(3)); x != y {
		t.Errorf("equal configurations: %q vs %q", x, y)
	}
	if x, y := mustIdentity(t, NewDistance(3)), mustIdentity(t, NewDistance(4)); x == y {
		t.Errorf("Dist(3) and Dist(4) share identity %q", x)
	}
	mustIdentity(t, SatCounters{})

	static := Static{HighConfidence: map[int64]bool{4: true}, Threshold: 0.9}
	for _, e := range []Estimator{static, NewPatternProfiler(8), And{NewJRS(DefaultJRS), SatCounters{}}, NewBoost(NewJRS(DefaultJRS), 2)} {
		if id, ok := Identity(e); ok {
			t.Errorf("%s: identified as %q, want unidentifiable", e.Name(), id)
		}
	}
}

func mustIdentity(t *testing.T, e Estimator) string {
	t.Helper()
	id, ok := Identity(e)
	if !ok {
		t.Fatalf("%s: not identifiable", e.Name())
	}
	return id
}

package conf

import "fmt"

// Identity returns the complete configuration identity of a freshly
// constructed estimator: two fresh estimators with equal identities
// give the same verdict on every branch of every stream, so a
// simulation's statistics are a function of its estimators'
// identities. Name is not enough for that — JRS(t=15) omits the table
// geometry — so Identity spells out every configuration field.
//
// Identity covers the estimators the speculation-control experiments
// attach to policied runs (JRS, SatCnt, Distance). ok is false for
// every other type; a caller keying a cache on identities must then
// treat the estimator as unique and not cache.
func Identity(e Estimator) (id string, ok bool) {
	switch e := e.(type) {
	case *JRS:
		return fmt.Sprintf("JRS%+v", e.cfg), true
	case *Distance:
		return fmt.Sprintf("Dist(%d)", e.Threshold), true
	case SatCounters:
		return "SatCnt", true
	}
	return "", false
}

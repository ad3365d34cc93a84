package pipeline

import (
	"reflect"
	"testing"

	"specctrl/internal/conf"
)

// TestBankGroupsByTable pins the grouping plan: scorers sharing a table
// key form one group per table, cuts ascending (ties in estimator
// order); a scorer alone on its table and every non-scorer are driven
// solo, in estimator order. Statistics stay exact either way (see
// replay's TestGroupedSweepMatchesSingletons), so this is the test that
// notices a sweep silently losing its shared table.
func TestBankGroupsByTable(t *testing.T) {
	jrs := func(th int) conf.Estimator {
		return conf.NewJRS(conf.JRSConfig{Entries: 256, Bits: 4, Threshold: th})
	}
	b := NewBank([]conf.Estimator{
		jrs(9),              // 0
		conf.SatCounters{},  // 1
		conf.NewDistance(4), // 2
		jrs(3),              // 3
		conf.NewJRS(conf.JRSConfig{Entries: 512, Bits: 4, Threshold: 3}), // 4: another table
		conf.NewDistance(1), // 5
		jrs(9),              // 6
	})
	var groups [][]int
	for _, g := range b.groups {
		var ids []int
		for _, m := range g.members {
			ids = append(ids, m.i)
		}
		groups = append(groups, ids)
	}
	if want := [][]int{{3, 0, 6}, {5, 2}}; !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
	var solo []int
	for _, f := range b.solo {
		solo = append(solo, f.i)
	}
	if want := []int{1, 4}; !reflect.DeepEqual(solo, want) {
		t.Errorf("solo = %v, want %v", solo, want)
	}
}

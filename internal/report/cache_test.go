package report_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
)

// cachedSweep is the full-suite Table IV sweep through the keyed cache.
func cachedSweep(workers int) (report.Characterization, error) {
	r, err := report.NewQuery(core.Suite(), mcu.TableIVSet(), nil).Run(core.SweepOptions{Workers: workers})
	return r.Characterization, err
}

// uncachedSweep recomputes the full-suite Table IV sweep, bypassing and
// leaving untouched the keyed cache.
func uncachedSweep(workers int) (report.Characterization, error) {
	recs, err := core.CharacterizeSuiteOpts(core.Suite(), mcu.TableIVSet(), core.SweepOptions{Workers: workers})
	return report.Characterization{Records: recs}, err
}

// TestSweepCacheExactCapacity: the capacity bound is exact and
// least-recently-hit. At capacity 2, four distinct one-board queries
// with a re-hit of the second between the third and fourth leave
// exactly the two most recently hit queries retained, and evict two.
func TestSweepCacheExactCapacity(t *testing.T) {
	report.InvalidateCharacterization()
	report.SetSweepCacheCapacity(2)
	defer func() {
		report.SetSweepCacheCapacity(report.DefaultSweepCacheCapacity)
		report.InvalidateCharacterization()
	}()
	sp, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick not registered")
	}
	var qs []report.Query
	for _, name := range []string{"M0+", "M4", "M33", "M7"} {
		a, ok := mcu.ByName(name)
		if !ok {
			t.Fatalf("board %s not registered", name)
		}
		qs = append(qs, report.NewQuery([]core.Spec{sp}, []mcu.Arch{a}, nil))
	}
	run := func(q report.Query) {
		t.Helper()
		if _, err := q.Run(core.SweepOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	evicted := obs.Counters()[obs.CounterSweepCacheEvicted]
	run(qs[0])
	run(qs[1])
	run(qs[2]) // evicts qs[0]
	run(qs[1]) // hit: qs[1] becomes the most recent
	run(qs[3]) // evicts qs[2], the least recently hit
	for i, want := range []bool{false, true, false, true} {
		if got := qs[i].Present(); got != want {
			t.Errorf("query %d present = %v, want %v", i, got, want)
		}
	}
	if d := obs.Counters()[obs.CounterSweepCacheEvicted] - evicted; d != 2 {
		t.Errorf("sweep.cache.evicted rose by %d, want 2", d)
	}
}

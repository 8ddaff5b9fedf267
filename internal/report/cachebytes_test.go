package report_test

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/report"
)

// uncachedJSON renders a fresh, cache-bypassing sweep of the query —
// the reference every served byte slice must equal.
func uncachedJSON(t *testing.T, specs []core.Spec, archs []mcu.Arch) []byte {
	t.Helper()
	recs, err := core.CharacterizeSuiteOpts(specs, archs, core.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (report.Characterization{Records: recs}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func smallQuery(t *testing.T) ([]core.Spec, []mcu.Arch) {
	t.Helper()
	sp, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick not registered")
	}
	return []core.Spec{sp}, []mcu.Arch{mcu.M4}
}

func mustJSON(t *testing.T, r report.Result) []byte {
	t.Helper()
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCachedBytesMatchUncachedExport: the bytes a retained entry serves
// equal a fresh uncached WriteJSON, for the full default query and a
// small one, and a later hit returns the very same slice.
func TestCachedBytesMatchUncachedExport(t *testing.T) {
	small, smallArchs := smallQuery(t)
	for _, c := range []struct {
		name  string
		specs []core.Spec
		archs []mcu.Arch
	}{
		{"small", small, smallArchs},
		{"full", core.Suite(), mcu.TableIVSet()},
	} {
		t.Run(c.name, func(t *testing.T) {
			report.InvalidateCharacterization()
			q := report.NewQuery(c.specs, c.archs, nil)
			first, err := q.Run(core.SweepOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			served := mustJSON(t, first)
			if want := uncachedJSON(t, c.specs, c.archs); !bytes.Equal(served, want) {
				t.Fatalf("served %d bytes differ from the uncached export (%d bytes)", len(served), len(want))
			}
			hit, err := q.Run(core.SweepOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if again := mustJSON(t, hit); &again[0] != &served[0] {
				t.Fatal("a cache hit re-encoded instead of sharing the entry's bytes")
			}
		})
	}
}

// TestCachedBytesEncodedOnce: N concurrent callers on one freshly
// completed entry, and N coalesced callers of one in-flight run,
// trigger exactly one encode and share one slice.
func TestCachedBytesEncodedOnce(t *testing.T) {
	specs, archs := smallQuery(t)
	const n = 16
	check := func(t *testing.T, before int64, got [][]byte) {
		t.Helper()
		if d := report.JSONEncodes() - before; d != 1 {
			t.Fatalf("%d callers triggered %d encodes, want 1", n, d)
		}
		for i, b := range got {
			if &b[0] != &got[0][0] {
				t.Fatalf("caller %d got a private copy of the report", i)
			}
		}
	}
	concurrently := func(t *testing.T, q report.Query) [][]byte {
		t.Helper()
		got := make([][]byte, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r, err := q.Run(core.SweepOptions{})
				if err == nil {
					got[i], err = r.JSON()
				}
				errs[i] = err
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		return got
	}

	t.Run("completed-entry", func(t *testing.T) {
		report.InvalidateCharacterization()
		q := report.NewQuery(specs, archs, nil)
		if _, err := q.Run(core.SweepOptions{}); err != nil { // completes without encoding
			t.Fatal(err)
		}
		before := report.JSONEncodes()
		check(t, before, concurrently(t, q))
	})
	t.Run("coalesced-run", func(t *testing.T) {
		report.InvalidateCharacterization()
		before := report.JSONEncodes()
		check(t, before, concurrently(t, report.NewQuery(specs, archs, nil)))
	})
}

// flakySpec is a kernel whose Setup fails while broken is set: the
// same query is first partial, then healthy.
func flakySpec(name string, broken *atomic.Bool) core.Spec {
	return core.Spec{
		Name: name, Stage: core.Control, Category: "FaultInject", Dataset: "synthetic", Prec: mcu.PrecF32,
		Factory: func() harness.Problem {
			return faultinject.New(name, faultinject.Hooks{Setup: func() error {
				if broken.Load() {
					return errors.New("faultinject: deliberate setup failure")
				}
				return nil
			}})
		},
	}
}

// TestPartialRunNeverRetainsBytes: a partial run's export is encoded
// per call and never stored on an entry; the next identical healthy
// query re-sweeps and serves the full bytes.
func TestPartialRunNeverRetainsBytes(t *testing.T) {
	report.InvalidateCharacterization()
	var broken atomic.Bool
	broken.Store(true)
	specs := []core.Spec{faultinject.GoodSpec("cb-good"), flakySpec("cb-flaky", &broken)}
	archs := []mcu.Arch{mcu.M4}
	q := report.NewQuery(specs, archs, nil)

	partial, err := q.Run(core.SweepOptions{})
	if err == nil || !partial.Partial() {
		t.Fatalf("broken kernel did not make the run partial (err=%v)", err)
	}
	before := report.JSONEncodes()
	a, b := mustJSON(t, partial), mustJSON(t, partial)
	if d := report.JSONEncodes() - before; d != 2 || &a[0] == &b[0] {
		t.Fatalf("partial export: %d encodes for 2 calls (shared=%v), want per-call encodes", d, &a[0] == &b[0])
	}
	if !bytes.Contains(a, []byte(`"partial": true`)) {
		t.Fatal("partial run's export lost its partial marker")
	}
	if q.Present() {
		t.Fatal("a partial run was retained in the cache")
	}

	broken.Store(false)
	healthy, err := q.Run(core.SweepOptions{})
	if err != nil || healthy.Partial() {
		t.Fatalf("healed query still partial (err=%v)", err)
	}
	if got, want := mustJSON(t, healthy), uncachedJSON(t, specs, archs); !bytes.Equal(got, want) {
		t.Fatal("healed query did not serve the full export")
	}
	if !q.Present() {
		t.Fatal("healthy run was not retained")
	}
}

// TestInvalidateDropsBytes: invalidation drops an entry's bytes with
// the entry — the next query re-sweeps and encodes afresh, while a
// holder of the old slice keeps valid bytes.
func TestInvalidateDropsBytes(t *testing.T) {
	report.InvalidateCharacterization()
	specs, archs := smallQuery(t)
	q := report.NewQuery(specs, archs, nil)
	r1, err := q.Run(core.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	old := mustJSON(t, r1)
	snapshot := bytes.Clone(old)

	report.InvalidateCharacterization()
	if q.Present() {
		t.Fatal("entry survived invalidation")
	}
	before := report.JSONEncodes()
	r2, err := q.Run(core.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := mustJSON(t, r2)
	if report.JSONEncodes()-before != 1 || &fresh[0] == &old[0] {
		t.Fatal("post-invalidation query served the dropped entry's bytes")
	}
	if !bytes.Equal(fresh, snapshot) || !bytes.Equal(old, snapshot) {
		t.Fatal("re-swept bytes differ, or the old holder's bytes changed")
	}
}

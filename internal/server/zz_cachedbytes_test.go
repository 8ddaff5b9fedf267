package server_test

import (
	"bytes"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
)

// TestZZPartialSweepNeverServedFromCache: a partial run answers 200
// with its failures block but is never retained — neither its records
// nor its bytes — so the next identical request, once the kernel is
// healthy, re-sweeps and serves the full export. Registration is
// process-permanent, hence the ZZ prefix.
func TestZZPartialSweepNeverServedFromCache(t *testing.T) {
	const name = "zz-cachedbytes-flaky"
	var broken atomic.Bool
	broken.Store(true)
	flaky := core.Spec{
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
	if err := core.Register(flaky); err != nil {
		t.Fatal(err)
	}
	report.InvalidateCharacterization()
	defer report.InvalidateCharacterization()
	obs.ResetCounters()
	h := newTestServer()
	const body = `{"kernels":["madgwick","` + name + `"],"archs":"M4"}`

	for i := 0; i < 2; i++ {
		rec := postSweep(t, h, body)
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"partial": true`)) {
			t.Fatalf("broken request %d: status %d, want a 200 partial report: %s", i, rec.Code, rec.Body.String())
		}
	}
	if hits, misses := obs.Counters()[obs.CounterSweepCacheHit], obs.Counters()[obs.CounterSweepCacheMiss]; hits != 0 || misses != 2 {
		t.Fatalf("partial runs: %d hits, %d misses; want every partial request to re-sweep", hits, misses)
	}

	broken.Store(false)
	madgwick, _ := core.ByName("madgwick")
	want := uncachedExport(t, []core.Spec{madgwick, flaky}, []mcu.Arch{mcu.M4})
	rec := postSweep(t, h, body)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("healed request: status %d, served %d bytes, want the full %d-byte export", rec.Code, rec.Body.Len(), len(want))
	}
	if misses := obs.Counters()[obs.CounterSweepCacheMiss]; misses != 3 {
		t.Fatalf("healed request did not re-sweep (misses = %d, want 3)", misses)
	}
	rec = postSweep(t, h, body)
	if !bytes.Equal(rec.Body.Bytes(), want) || obs.Counters()[obs.CounterSweepCacheHit] != 1 {
		t.Fatal("the healthy result was not served from the cache")
	}
}

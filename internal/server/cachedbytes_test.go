package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/report"
	"repro/internal/server"
)

// Served bytes are the cache entry's encoded export. These tests hold
// that export to a fresh, cache-bypassing render of the same query, on
// both the synchronous path and the async result poll.

// uncachedExport renders the query without touching the sweep cache.
func uncachedExport(t *testing.T, specs []core.Spec, archs []mcu.Arch) []byte {
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

// pollResult waits for an async job and returns its 200 body.
func pollResult(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweep/"+id, nil))
		switch rec.Code {
		case http.StatusOK:
			return rec.Body.Bytes()
		case http.StatusAccepted:
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("GET /v1/sweep/%s = %d: %s", id, rec.Code, rec.Body.String())
		}
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

func TestServedBytesEqualUncachedExport(t *testing.T) {
	madgwick, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick left the suite")
	}
	for _, c := range []struct {
		name, body, async string
		specs             []core.Spec
		archs             []mcu.Arch
	}{
		{"small", smallSweepBody, `{"kernels":["madgwick"],"archs":"M4","async":true}`, []core.Spec{madgwick}, []mcu.Arch{mcu.M4}},
		{"full", `{}`, `{"async":true}`, core.Suite(), mcu.TableIVSet()},
	} {
		t.Run(c.name, func(t *testing.T) {
			report.InvalidateCharacterization()
			h := newTestServer()
			want := uncachedExport(t, c.specs, c.archs)

			// The cold request fills the entry; the second is a warm hit.
			for i, label := range []string{"cold sync", "warm sync"} {
				rec := postSweep(t, h, c.body)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", label, rec.Code, rec.Body.String())
				}
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("%s (request %d): served %d bytes differ from the uncached export (%d bytes)",
						label, i, rec.Body.Len(), len(want))
				}
			}

			rec := postSweep(t, h, c.async)
			if rec.Code != http.StatusAccepted {
				t.Fatalf("async submit: status %d: %s", rec.Code, rec.Body.String())
			}
			var acc server.SweepAccepted
			if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
				t.Fatal(err)
			}
			if got := pollResult(t, h, acc.ID); !bytes.Equal(got, want) {
				t.Fatalf("async result: %d bytes differ from the uncached export (%d bytes)", len(got), len(want))
			}
		})
	}
}

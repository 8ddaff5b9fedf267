package harness_test

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestResolveBackend covers the -backend/-tracefile semantics every CLI
// shares: the classic path, the trace backend, registry names, and the
// three error cases.
func TestResolveBackend(t *testing.T) {
	const traceFile = "testdata/madgwick_m4_trace.csv"
	for _, c := range []struct {
		name, backend, traceFile string
		want                     string // resolved backend name; "" means the classic nil path
		errHas                   []string
	}{
		{name: "default", backend: "", want: ""},
		{name: "sim", backend: "sim", want: ""},
		{name: "sim any case and spaces", backend: "  SiM ", want: ""},
		{name: "trace without file", backend: "trace", errHas: []string{"-tracefile"}},
		{name: "trace without file any case", backend: " TRACE", errHas: []string{"-tracefile"}},
		{name: "tracefile alone", traceFile: traceFile, want: "trace"},
		{name: "tracefile with trace", backend: "trace", traceFile: traceFile, want: "trace"},
		{name: "tracefile with Trace and spaces", backend: " Trace ", traceFile: traceFile, want: "trace"},
		{name: "tracefile with sim", backend: "sim", traceFile: traceFile, errHas: []string{"-tracefile", "cannot combine", "sim"}},
		{name: "tracefile with other", backend: "lab", traceFile: traceFile, errHas: []string{"cannot combine", "lab"}},
		{name: "unknown", backend: "warp9", errHas: []string{`unknown backend "warp9"`, "registered:", "sim"}},
		{name: "unknown any case", backend: " Warp9 ", errHas: []string{`unknown backend "warp9"`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			be, err := harness.ResolveBackend(c.backend, c.traceFile)
			if len(c.errHas) > 0 {
				if err == nil {
					t.Fatalf("resolved %v, want an error", be)
				}
				for _, s := range c.errHas {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("error %q does not mention %q", err, s)
					}
				}
				if be != nil {
					t.Errorf("error path returned a non-nil backend %v", be)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case c.want == "" && be != nil:
				t.Fatalf("resolved %s, want the classic nil path", be.Name())
			case c.want != "" && (be == nil || be.Name() != c.want):
				t.Fatalf("resolved %v, want %s", be, c.want)
			}
		})
	}
}

// TestResolveBackendRegistered: a registered name resolves to that
// backend, case-insensitively.
func TestResolveBackendRegistered(t *testing.T) {
	if err := harness.RegisterBackend(fakeBackend{name: "resolve-lab", source: harness.SourceMeasured}); err != nil {
		t.Fatal(err)
	}
	be, err := harness.ResolveBackend(" Resolve-Lab ", "")
	if err != nil {
		t.Fatal(err)
	}
	if be == nil || be.Name() != "resolve-lab" {
		t.Fatalf("resolved %v, want resolve-lab", be)
	}
}

// TestResolveBackendMissingTraceFile: an unreadable trace file is an
// error, never a silent classic sweep.
func TestResolveBackendMissingTraceFile(t *testing.T) {
	if be, err := harness.ResolveBackend("", "no/such/capture.csv"); err == nil || be != nil {
		t.Fatalf("ResolveBackend(missing file) = %v, %v; want a load error", be, err)
	}
}

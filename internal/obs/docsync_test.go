package obs_test

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	// Importing report links every package that registers counters
	// (report itself, and core → harness → profile), so the registry
	// reflects the full production set.
	_ "repro/internal/report"
	// server owns the server.* counters.
	_ "repro/internal/server"
)

// TestObservabilityDocMatchesCode pins docs/observability.md to the
// code, in both directions: every span, counter and gauge the doc
// tables name must exist in obs (names.go), every name in names.go must be
// documented, and every canonical counter must actually be registered
// by its owning package.
func TestObservabilityDocMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	docSpans := tableNames(t, string(data), "## Spans")
	docCounters := tableNames(t, string(data), "## Counters")
	docGauges := tableNames(t, string(data), "## Gauges")

	if got, want := sorted(docSpans), sorted(obs.AllSpans); !equal(got, want) {
		t.Errorf("doc spans %v != code spans %v", got, want)
	}
	if got, want := sorted(docCounters), sorted(obs.AllCounters); !equal(got, want) {
		t.Errorf("doc counters %v != code counters %v", got, want)
	}
	if got, want := sorted(docGauges), sorted(obs.AllGauges); !equal(got, want) {
		t.Errorf("doc gauges %v != code gauges %v", got, want)
	}

	registered := map[string]bool{}
	for _, name := range obs.RegisteredCounterNames() {
		registered[name] = true
	}
	for _, name := range obs.AllCounters {
		if !registered[name] {
			t.Errorf("counter %q is declared and documented but never registered by any package", name)
		}
	}
}

// tableNames extracts the first backticked token of each table row in
// the markdown section starting at heading (up to the next heading).
func tableNames(t *testing.T, doc, heading string) []string {
	t.Helper()
	i := strings.Index(doc, heading)
	if i < 0 {
		t.Fatalf("docs/observability.md lost its %q section", heading)
	}
	section := doc[i+len(heading):]
	if j := strings.Index(section, "\n## "); j >= 0 {
		section = section[:j]
	}
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")
	var names []string
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		names = append(names, m[1])
	}
	if len(names) == 0 {
		t.Fatalf("no table rows found under %q", heading)
	}
	return names
}

func sorted(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

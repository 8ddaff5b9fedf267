package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// BuildConfig mirrors the paper's JSON benchmark configuration: "All
// benchmarks can be configured via JSON files that our build system uses
// for build-time parameters such as Reps, Verbosity, and TotalRuns."
// Verbosity and TotalRuns are accepted so the paper's files parse, but
// map to nothing in the harness Config.
type BuildConfig struct {
	Reps      int  `json:"Reps"`
	Warmup    int  `json:"Warmup"`
	CacheOn   bool `json:"CacheOn"`
	Verbosity int  `json:"Verbosity"`
	TotalRuns int  `json:"TotalRuns"`
	// MinROIUs is the auto-rep ROI target in microseconds (0 = default).
	MinROIUs float64 `json:"MinROIUs"`
}

// DefaultBuildConfig mirrors the artifact's shipped JSON defaults.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{Reps: 0, Warmup: 1, CacheOn: true, Verbosity: 0, TotalRuns: 1}
}

// Config converts the build parameters into a harness Config.
func (b BuildConfig) Config() Config {
	cfg := DefaultConfig()
	cfg.Reps = b.Reps
	cfg.Warmup = b.Warmup
	cfg.CacheOn = b.CacheOn
	if b.MinROIUs > 0 {
		cfg.MinROITimeS = b.MinROIUs * 1e-6
	}
	return cfg
}

// LoadBuildConfig reads a JSON benchmark configuration file. Missing
// fields keep their defaults; unknown fields are rejected so typos in
// experiment configs fail loudly.
func LoadBuildConfig(path string) (BuildConfig, error) {
	out := DefaultBuildConfig()
	data, err := os.ReadFile(path)
	if err != nil {
		return out, fmt.Errorf("harness: read config: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		return out, fmt.Errorf("harness: parse config %s: %w", path, err)
	}
	if out.TotalRuns < 1 {
		out.TotalRuns = 1
	}
	return out, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// cliOps is the timed sample of a CLI workload: one closed-loop client
// running one fresh process after another.
type cliOps struct {
	t       tally
	wall    []time.Duration
	cpu     []float64 // ms
	rssKB   []float64
	elapsed time.Duration // summed op wall time
}

func (c *cliOps) record(r opResult) bool {
	c.t.add(r.Err == nil)
	c.elapsed += r.Wall
	if r.Err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", r.Err)
		return false
	}
	c.wall = append(c.wall, r.Wall)
	c.cpu = append(c.cpu, float64(r.CPU)/float64(time.Millisecond))
	c.rssKB = append(c.rssKB, float64(r.MaxRSSKB))
	return true
}

// metrics renders the end-to-end metrics every CLI workload reports.
// Every op of a CLI workload produces a full-suite report, so the
// full-report class is the whole sample: full_report_p50_ms and
// full_report_cpu_ms repeat p50_ms and cpu_ms_per_op, because every
// workload must report every gated metric.
func (c *cliOps) metrics(e *env, setup []float64) result {
	lat := summarize(c.wall)
	e.logf("host steal during the timed phase: %.1f%% of CPU time", e.stealPct)
	opsPerS := float64(len(c.wall)) / c.elapsed.Seconds()
	e.logf("ops=%d failed=%d fail_frac=%.4f | p50 %.3f ms, p90 %.3f ms%s, p99 %.3f ms%s, %.3f ops/s",
		c.t.Attempted, c.t.Failed, c.t.failFrac(), lat.P50, lat.P90, tailNote(lat.N, 90), lat.P99, tailNote(lat.N, 99), opsPerS)
	r := result{Attempted: c.t.Attempted, Failed: c.t.Failed}
	r.add("p50_ms", "ms", lat.P50)
	r.addUngated("p90_ms", "ms", lat.P90)
	r.addUngated("p99_ms", "ms", lat.P99)
	r.add("full_report_p50_ms", "ms", lat.P50)
	r.addUngated("ops_per_s", "1/s", opsPerS)
	r.add("cpu_ms_per_op", "ms", median(c.cpu))
	r.add("full_report_cpu_ms", "ms", median(c.cpu))
	r.add("peak_rss_mb", "MB", median(c.rssKB)/1024)
	r.add("setup_s", "s", median(setup))
	return r
}

// tailNote flags a percentile the sample does not support.
func tailNote(n int, p float64) string {
	if tailSupported(n, p) {
		return ""
	}
	return fmt.Sprintf(" (only %d samples beyond)", n-rank(n, p))
}

// setupRepeats is how many store fills a cache workload's set-up runs;
// setup_s is their median.
const setupRepeats = 15

// coldSetupStarts is how many `entobench list` starts give the
// cold_sweep set-up time.
const coldSetupStarts = 41

// coldSweep: one op is a fresh `entobench sweep -json` process over the
// default query. Set-up is binary start (`entobench list`).
func coldSweep(e *env) (result, error) {
	var out bytes.Buffer
	var setup []float64
	for i := 0; i < coldSetupStarts; i++ {
		r := runOp(&out, e.entobench(), "list")
		if r.Err != nil {
			return result{}, r.Err
		}
		setup = append(setup, r.Wall.Seconds())
	}
	// One untimed op pages the binary and its inputs in.
	if r := runOp(&out, e.entobench(), "sweep", "-json"); r.Err != nil {
		return result{}, r.Err
	}
	var ops cliOps
	steal := readStealTicks()
	for deadline := time.Now().Add(e.seconds); time.Now().Before(deadline); {
		if ops.record(runOp(&out, e.entobench(), "sweep", "-json")) {
			if err := checkDigest("cold_sweep export", out.Bytes(), defaultExportSHA256); err != nil {
				e.fail(err)
			}
		}
	}
	e.stealPct = steal.since()
	return ops.metrics(e, setup), nil
}

// fillStores runs cache set-up setupRepeats times: one `entobench
// sweep -json -cachedir` into an empty store, each export checked
// against the default digest. It returns the last store, which the
// timed phase uses, and the fill times.
func fillStores(e *env, what string) (string, []float64, error) {
	var out bytes.Buffer
	var setup []float64
	var store string
	for i := 0; i < setupRepeats; i++ {
		if store != "" {
			if err := os.RemoveAll(store); err != nil {
				return "", nil, err
			}
		}
		// Commit earlier writes and deletes first, so each fill pays
		// only for its own.
		syncFS()
		store = filepath.Join(e.tmp, fmt.Sprintf("store-%d", i))
		r := runOp(&out, e.entobench(), "sweep", "-json", "-cachedir", store)
		if r.Err != nil {
			return "", nil, r.Err
		}
		setup = append(setup, r.Wall.Seconds())
		if err := checkDigest(what+" store fill", out.Bytes(), defaultExportSHA256); err != nil {
			e.fail(err)
		}
	}
	return store, setup, nil
}

// cacheHitSweep: one op is a fresh `entobench sweep -json -cachedir D`
// process over the default query against a store filled in set-up, so
// every cell is a cell-store hit and nothing is written. Set-up is the
// store fill.
func cacheHitSweep(e *env) (result, error) {
	store, setup, err := fillStores(e, "cache_hit_sweep")
	if err != nil {
		return result{}, err
	}
	var out bytes.Buffer
	// One untimed op pages the binary and the store in; then commit
	// set-up's writes and deletes before timing starts.
	if r := runOp(&out, e.entobench(), "sweep", "-json", "-cachedir", store); r.Err != nil {
		return result{}, r.Err
	}
	syncFS()
	var ops cliOps
	steal := readStealTicks()
	for deadline := time.Now().Add(e.seconds); time.Now().Before(deadline); {
		if ops.record(runOp(&out, e.entobench(), "sweep", "-json", "-cachedir", store)) {
			if err := checkDigest("cache_hit_sweep export", out.Bytes(), defaultExportSHA256); err != nil {
				e.fail(err)
			}
		}
	}
	e.stealPct = steal.since()
	return ops.metrics(e, setup), nil
}

// resweepWarmup is the untimed warm-up of cache_resweep.
const resweepWarmup = 5 * time.Second

// resweepSamples bounds how many timed cache_resweep ops are re-run
// uncached after the timed phase for a byte-for-byte comparison.
const resweepSamples = 4

// cacheResweep: one op is a fresh `entobench sweep -json -cachedir D
// -boards B_i -archs tableiv,<B_i>` process against a store filled in
// set-up, each op adding one seeded never-seen board. Set-up is the
// store fill.
func cacheResweep(e *env) (result, error) {
	store, setup, err := fillStores(e, "cache_resweep")
	if err != nil {
		return result{}, err
	}
	boardDir := filepath.Join(e.tmp, "boards")
	if err := os.MkdirAll(boardDir, 0o755); err != nil {
		return result{}, err
	}
	var out bytes.Buffer
	warm := &boardWriter{rng: e.rng(1), dir: boardDir, prefix: fmt.Sprintf("pw%d", e.seed)}
	timed := &boardWriter{rng: e.rng(2), dir: boardDir, prefix: fmt.Sprintf("pb%d", e.seed)}
	sampleRNG := e.rng(3)
	// Untimed warm-up ops of the same kind: the first seconds of
	// back-to-back incremental sweeps on a fresh store run up to twice
	// as slow as the steady state.
	for t0 := time.Now(); time.Since(t0) < resweepWarmup; {
		a, file, err := warm.next()
		if err != nil {
			return result{}, err
		}
		if r := runOp(&out, e.entobench(), "sweep", "-json", "-cachedir", store, "-boards", file, "-archs", "tableiv,"+a.Name); r.Err != nil {
			return result{}, r.Err
		}
	}
	// Commit set-up's file writes and deletes before timing starts, so
	// they do not land in the timed phase as journal work.
	syncFS()
	type sample struct {
		file, name string
		out        []byte
	}
	var samples []sample
	var ops cliOps
	steal := readStealTicks()
	for i := 0; ops.elapsed < e.seconds; i++ {
		a, file, err := timed.next()
		if err != nil {
			return result{}, err
		}
		// Only the subprocess is timed; board generation is input
		// preparation, not work the program does.
		r := runOp(&out, e.entobench(), "sweep", "-json", "-cachedir", store,
			"-boards", file, "-archs", "tableiv,"+a.Name)
		if !ops.record(r) {
			continue
		}
		if !json.Valid(out.Bytes()) || !bytes.Contains(out.Bytes(), []byte(`"name": "`+a.Name+`"`)) {
			e.fail(fmt.Errorf("cache_resweep op %d: output is not a JSON report naming board %s", i, a.Name))
		}
		if len(samples) < resweepSamples && (i == 0 || sampleRNG.Intn(16) == 0) {
			samples = append(samples, sample{file, a.Name, bytes.Clone(out.Bytes())})
		}
	}
	e.stealPct = steal.since()
	for _, s := range samples {
		if r := runOp(&out, e.entobench(), "sweep", "-json", "-boards", s.file, "-archs", "tableiv,"+s.name); r.Err != nil {
			e.fail(fmt.Errorf("uncached reference for %s: %w", s.name, r.Err))
		} else if err := checkSame("cache_resweep "+s.name+" vs uncached sweep", s.out, out.Bytes()); err != nil {
			e.fail(err)
		}
	}
	e.logf("cache_resweep: %d ops, %d checked byte-for-byte against uncached sweeps", len(ops.wall), len(samples))
	return ops.metrics(e, setup), nil
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// Cold ops in fresh child processes of this program, so dataset
// masters and every other process-level memo start cold as they do for
// `entobench sweep`.

const childFlag = "-cold-child"

// coldChildResult is what a fresh-process child reports: either the
// dataset pass (first-touch and warm Σ Factory()+Setup()) or one cold
// sweep op like `entobench sweep -json`.
type coldChildResult struct {
	DatasetFirstMS float64
	DatasetWarmMS  float64
	SweepWallMS    float64
	ExportMS       float64
	EncodeMS       float64
	Spans          []obs.Span
	HostReps       uint64
	CellsComputed  uint64
	CellsCached    uint64
	CacheHit       uint64
	CacheLookups   uint64
	Mallocs        uint64
	AllocBytes     uint64
	Digest         string
}

// childMain runs in a fresh copy of this program. With -dataset it
// times every kernel's Factory()+Setup() twice, first touch and warm;
// otherwise it runs the default sweep (traced or not), export and
// encode, as `entobench sweep -json` does.
func childMain(args []string) int {
	fs := flag.NewFlagSet("cold-child", flag.ContinueOnError)
	traceOn := fs.Bool("trace", false, "collect obs spans")
	datasetOnly := fs.Bool("dataset", false, "time first-touch and warm Factory()+Setup() instead of a sweep")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var r coldChildResult
	var err error
	if *datasetOnly {
		if r.DatasetFirstMS, err = setupAll(); err == nil {
			r.DatasetWarmMS, err = setupAll()
		}
	} else {
		r, err = coldSweepOp(*traceOn)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cold child:", err)
		return 1
	}
	return 0
}

// setupAll times Factory()+Setup() over the suite, in milliseconds.
func setupAll() (float64, error) {
	t0 := time.Now()
	for _, s := range core.Suite() {
		if err := s.Factory().Setup(); err != nil {
			return 0, fmt.Errorf("setup %s: %w", s.Name, err)
		}
	}
	return msf(time.Since(t0)), nil
}

func coldSweepOp(traceOn bool) (coldChildResult, error) {
	var r coldChildResult
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := obs.Counters()
	if traceOn {
		obs.StartTrace()
	}
	t1 := time.Now()
	c, err := report.RunCharacterizationOpts(core.SweepOptions{})
	r.SweepWallMS = msf(time.Since(t1))
	if traceOn {
		r.Spans = obs.StopTrace().Spans
	}
	if err != nil {
		return r, fmt.Errorf("sweep: %w", err)
	}
	t2 := time.Now()
	rep := c.JSONExport()
	r.ExportMS = msf(time.Since(t2))
	var buf bytes.Buffer
	t3 := time.Now()
	if err := report.WriteJSONReport(&buf, rep); err != nil {
		return r, fmt.Errorf("encode: %w", err)
	}
	r.EncodeMS = msf(time.Since(t3))
	runtime.ReadMemStats(&m1)
	c1 := obs.Counters()
	r.Digest = digest(buf.Bytes())
	r.HostReps = counterDelta(c0, c1, obs.CounterHarnessHostReps)
	r.CellsComputed = counterDelta(c0, c1, obs.CounterSweepCellsComputed)
	r.CellsCached = counterDelta(c0, c1, obs.CounterSweepCellsCached)
	r.CacheHit = counterDelta(c0, c1, obs.CounterSweepCacheHit)
	r.CacheLookups = r.CacheHit + counterDelta(c0, c1, obs.CounterSweepCacheMiss) + counterDelta(c0, c1, obs.CounterSweepCacheCoalesced)
	r.Mallocs = m1.Mallocs - m0.Mallocs
	r.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	return r, nil
}

// runColdChild runs one cold op in a fresh copy of this program.
func runColdChild(args ...string) (coldChildResult, time.Time, error) {
	self, err := os.Executable()
	if err != nil {
		return coldChildResult{}, time.Time{}, err
	}
	var out, stderr bytes.Buffer
	cmd := exec.Command(self, append([]string{childFlag}, args...)...)
	cmd.Stdout, cmd.Stderr = &out, &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return coldChildResult{}, start, fmt.Errorf("cold child: %v: %s", err, firstLine(stderr.String()))
	}
	var r coldChildResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return r, start, fmt.Errorf("cold child output: %w", err)
	}
	return r, start, nil
}

package report_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/report"
)

// Distributed sweeps travel through the cell store: each of N shard
// runs (core.SweepOptions ShardIndex/ShardCount) fills a store with its
// own slice of the job grid, the record files are unioned into one
// directory, and an unsharded sweep against that directory assembles
// the report from cache hits alone — exactly `entobench sweep -shard
// I/N -cachedir` followed by `cp` and `entobench sweep -json -cachedir`.

// jobCount is the number of sweep jobs over specs×archs: one static job
// per kernel plus a cache-on and a cache-off cell per fitting board.
func jobCount(specs []core.Spec, archs []mcu.Arch) int {
	n := 0
	for _, s := range specs {
		n++
		for _, a := range archs {
			if s.Fits(a) {
				n += 2
			}
		}
	}
	return n
}

// fillShard runs slot i of an n-way partition against the store at dir
// and fails the test unless every owned job succeeded.
func fillShard(t *testing.T, specs []core.Spec, archs []mcu.Arch, be harness.Backend, i, n int, dir string) {
	t.Helper()
	cache, err := report.OpenCellCache(dir)
	if err != nil {
		t.Error(err)
		return
	}
	if _, err := core.CharacterizeSuiteOpts(specs, archs, core.SweepOptions{
		Workers: 2, ShardIndex: i, ShardCount: n, CellCache: cache, Backend: be,
	}); err != nil {
		t.Errorf("shard %d/%d: %v", i, n, err)
	}
}

// unionRecords copies every record file of the source stores into dst,
// the `cp s1/*.json s2/*.json m/` step, and returns how many files each
// source held.
func unionRecords(t *testing.T, dst string, srcs ...string) []int {
	t.Helper()
	counts := make([]int, len(srcs))
	for k, src := range srcs {
		paths, err := filepath.Glob(filepath.Join(src, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		counts[k] = len(paths)
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, filepath.Base(p)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return counts
}

// assemble runs the unsharded sweep against the store at dir, checks
// that every job was a hit, and returns the v1 JSON export.
func assemble(t *testing.T, specs []core.Spec, archs []mcu.Arch, be harness.Backend, dir string) []byte {
	t.Helper()
	cache, err := report.OpenCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 2, CellCache: cache, Backend: be})
	p := cache.Provenance()
	if want := jobCount(specs, archs); p.CellsComputed != 0 || p.CellsCached != want {
		t.Fatalf("assembly computed %d and loaded %d cells, want 0 and %d", p.CellsComputed, p.CellsCached, want)
	}
	return got
}

// The distribution invariant: N shard runs, each filling its own store,
// unioned and assembled, produce v1 JSON byte-identical to one
// single-process sweep — for several N. The shard stores are disjoint:
// together they hold exactly one record per job.
func TestShardFillAssembleByteIdentical(t *testing.T) {
	specs := cacheTestSpecs(t)
	archs := mcu.TableIVSet()
	golden := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1})

	for _, n := range []int{2, 3, 5} {
		dirs := make([]string, n)
		for i := range dirs {
			dirs[i] = t.TempDir()
			fillShard(t, specs, archs, nil, i+1, n, dirs[i])
		}
		union := t.TempDir()
		total := 0
		for _, c := range unionRecords(t, union, dirs...) {
			total += c
		}
		if want := jobCount(specs, archs); total != want {
			t.Fatalf("%d-way shard stores hold %d records, want one per job (%d)", n, total, want)
		}
		if got := assemble(t, specs, archs, nil, union); !bytes.Equal(golden, got) {
			t.Fatalf("%d-way shard fill + assemble diverged from the single-process sweep", n)
		}
	}
}

// Shards may also share one store, as concurrent processes on one
// -cachedir do: the store's atomic writes make the concurrent fill safe
// and the assembly is still all hits and byte-identical.
func TestShardFillSharedStore(t *testing.T) {
	specs := cacheTestSpecs(t)
	archs := mcu.TableIVSet()
	golden := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1})

	dir := t.TempDir()
	const n = 3
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fillShard(t, specs, archs, nil, i, n, dir)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := assemble(t, specs, archs, nil, dir); !bytes.Equal(golden, got) {
		t.Fatal("shared-store shard fill + assemble diverged from the single-process sweep")
	}
}

// With a partial trace backend the assembled report keeps every cell's
// provenance: the assembling run re-derives the measured/modeled labels
// from its own backend as it loads each cell, so the bytes — "source"
// fields and the backends block included — match the unsharded trace
// sweep.
func TestShardFillAssembleTraceBackend(t *testing.T) {
	specs := cacheTestSpecs(t)
	archs := mcu.TableIVSet()
	cfg := harness.DefaultConfig()
	pp, err := harness.Prepare(specs[0].Factory(), mcu.M4, specs[0].Prec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var captures []harness.TraceCapture
	for _, cacheOn := range []bool{true, false} {
		c := cfg
		c.CacheOn = cacheOn
		captures = append(captures, pp.SynthesizeCapture(mcu.M4, specs[0].Prec, c))
	}
	tb, err := harness.NewTraceBackend(captures)
	if err != nil {
		t.Fatal(err)
	}

	golden := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1, Backend: tb})
	for _, want := range []string{`"source": "measured"`, `"source": "modeled"`, `"backends"`} {
		if !bytes.Contains(golden, []byte(want)) {
			t.Fatalf("unsharded trace sweep lacks %s; the backend is not partial", want)
		}
	}

	s1, s2, union := t.TempDir(), t.TempDir(), t.TempDir()
	fillShard(t, specs, archs, tb, 1, 2, s1)
	fillShard(t, specs, archs, tb, 2, 2, s2)
	unionRecords(t, union, s1, s2)
	if got := assemble(t, specs, archs, tb, union); !bytes.Equal(golden, got) {
		t.Fatal("sharded trace sweep diverged from the unsharded one")
	}
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
)

// The traced run. It never measures end-to-end metrics for the gate;
// it splits each workload's time across the layers by timing calls
// into their public functions from this directory and by reading the spans
// and counters internal/obs emits. Spans recorded here and by the
// program land in one Chrome trace next to the results.

// Sample sizes of the traced run.
const (
	coldChildren   = 4   // fresh-process cold ops per tracing mode
	e2eColdOps     = 2   // CLI ops per cold child round; they give the traced run's own end-to-end p50
	e2eStoreOps    = 12  // likewise for cache_hit_sweep and cache_resweep
	e2eServeBlocks = 12  // likewise for warm_serve: 3000 requests after the warm-up
	prepareRounds  = 3   // suite prepares per kernel; the median is reported
	keyCalls       = 300 // SweepKey / SweepQueryPresent / warm RunSweepQuery calls
	encodeCalls    = 20  // JSONExport / WriteJSONReport calls on the full report
	rawStoreCalls  = 200 // raw cellstore Get / Put calls
	handlerBlocks  = 12  // in-process handler blocks (3000 requests) per tracing mode
	storeOpsEach   = 15  // in-process cache-store ops per tracing mode
	reportReps     = 15  // warm report-call timings per distinct warm_serve query
)

// topKernels are the five kernels whose prepare dominates the cold
// sweep; each gets its own harness.prepare_ms.<kernel> metric.
var topKernels = []string{"sift", "bee-mpc", "rel-lo-ransac", "orb", "fastbrief"}

// perLayer lists every per-layer metric in report order with its unit.
var perLayer = []struct{ name, unit string }{
	{"harness.prepare_ms", "ms"},
	{"harness.prepare_ms.sift", "ms"},
	{"harness.prepare_ms.bee-mpc", "ms"},
	{"harness.prepare_ms.rel-lo-ransac", "ms"},
	{"harness.prepare_ms.orb", "ms"},
	{"harness.prepare_ms.fastbrief", "ms"},
	{"harness.measure_us", "us"},
	{"harness.host_reps", "count"},
	{"core.static_ms", "ms"},
	{"core.cell_ms", "ms"},
	{"core.lane_idle_ms", "ms"},
	{"core.cells_computed", "count"},
	{"core.cells_cached", "count"},
	{"dataset.setup_first_ms", "ms"},
	{"report.export_ms", "ms"},
	{"report.encode_ms", "ms"},
	{"report.sweep_key_us", "us"},
	{"report.query_present_us", "us"},
	{"report.cache_hit_us", "us"},
	{"report.sweep_cache_hit_ratio", "ratio"},
	{"report.cell_key_us", "us"},
	{"cellstore.load_us", "us"},
	{"cellstore.store_us", "us"},
	{"cellstore.get_raw_us", "us"},
	{"cellstore.put_raw_us", "us"},
	{"cellstore.hit_ratio", "ratio"},
	{"cellstore.corrupt_discarded", "count"},
	{"server.handler_full_us", "us"},
	{"server.handler_small_us", "us"},
	{"server.residual_us", "us"},
	{"server.shed_total", "count"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_mb_per_op", "MB"},
	{"obs.trace_overhead_pct", "%"},
	{"unattributed_ms", "ms"},
}

// spanLog collects the benchmark's own spans plus the program's obs
// spans into one obs.Trace for the Chrome trace. Lanes: the in-process
// program's spans keep their own (0 coordinator, 1..N workers), the
// benchmark's spans around layer calls use benchLane, and cold child i
// uses childLane(i) plus its own lane.
type spanLog struct {
	mu    sync.Mutex
	start time.Time
	spans []obs.Span
}

const benchLane = 1000

func childLane(i int) int { return 100 * (i + 1) }

// add records one benchmark-side span around a call into a layer.
func (l *spanLog) add(name string, start time.Time, d time.Duration, args ...obs.Arg) {
	l.mu.Lock()
	l.spans = append(l.spans, obs.Span{Name: name, StartNS: start.Sub(l.start).Nanoseconds(), DurNS: d.Nanoseconds(), TID: benchLane, Args: args})
	l.mu.Unlock()
}

// addObs merges program spans recorded by obs, whose trace started at
// base, shifting their lanes by lane.
func (l *spanLog) addObs(lane int, base time.Time, spans []obs.Span) {
	off := base.Sub(l.start).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range spans {
		s.StartNS += off
		s.TID += lane
		l.spans = append(l.spans, s)
	}
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := (&obs.Trace{Spans: l.spans}).WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeCall runs f, records its span, and returns its duration.
func (l *spanLog) timeCall(name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.add(name, t0, d)
	return d
}

func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// counterDelta is the change of obs counters between two snapshots.
func counterDelta(before, after map[string]uint64, name string) uint64 {
	return after[name] - before[name]
}

// sweepSpans sums the program's sweep spans: static-proxy jobs, cell
// jobs, and the idle lane time of the sweep (wall × workers − jobs).
type sweepSpans struct {
	StaticMS, CellMS, LaneIdleMS float64
	Workers                      int
}

func sumSweepSpans(spans []obs.Span) sweepSpans {
	var s sweepSpans
	var jobs float64
	for _, sp := range spans {
		d := float64(sp.DurNS) / 1e6
		switch sp.Name {
		case obs.SpanSweepStatic:
			s.StaticMS += d
			jobs += d
		case obs.SpanSweepCell:
			s.CellMS += d
			jobs += d
		case obs.SpanSweep:
			for _, a := range sp.Args {
				if a.Key == "workers" {
					n, _ := strconv.Atoi(a.Val)
					s.Workers += n
					s.LaneIdleMS += d * float64(n)
				}
			}
		}
	}
	s.LaneIdleMS -= jobs
	return s
}

// ---- per-workload traced runs --------------------------------------

// layerRow is one line of a workload's reconstruction of its
// end-to-end p50.
type layerRow struct {
	name string
	ms   float64
}

// reconstruction rebuilds one end-to-end p50 from layer rows; the
// remainder is the unattributed row.
type reconstruction struct {
	what     string
	e2eP50MS float64
	rows     []layerRow
}

func (r reconstruction) unattributed() float64 {
	u := r.e2eP50MS
	for _, row := range r.rows {
		u -= row.ms
	}
	return u
}

// tracedWorkload is what the workload-specific part contributes. The
// first reconstruction is the workload's p50_ms, and gives
// unattributed_ms.
type tracedWorkload struct {
	recon       []reconstruction
	hostReps    float64
	spans       sweepSpans
	computed    float64
	cached      float64
	sweepHit    float64
	cellHit     float64
	allocs      float64
	allocMB     float64
	overheadPct float64
	shed        uint64
}

func traced(e *env, tracePath string) (result, error) {
	log := &spanLog{start: time.Now()}
	steal := readStealTicks()
	c0 := obs.Counters()
	p, err := runProbes(e, log)
	if err != nil {
		return result{}, err
	}
	var w tracedWorkload
	switch e.workload {
	case "cold_sweep":
		w, err = tracedCold(e, p)
	case "warm_serve":
		w, err = tracedServe(e, p)
	case "cache_hit_sweep":
		w, err = tracedStore(e, p, log, false)
	case "cache_resweep":
		w, err = tracedStore(e, p, log, true)
	}
	if err != nil {
		return result{}, err
	}
	c1 := obs.Counters()
	corrupt := counterDelta(c0, c1, obs.CounterCellstoreCorruptDiscarded)
	if corrupt != 0 {
		e.fail(fmt.Errorf("cellstore.corrupt_discarded rose by %d", corrupt))
	}
	w.shed += counterDelta(c0, c1, obs.CounterServerShedTotal)
	if w.shed != 0 {
		e.fail(fmt.Errorf("server.shed_total rose by %d", w.shed))
	}
	if err := log.write(tracePath); err != nil {
		return result{}, err
	}

	unattributed := w.recon[0].unattributed()
	vals := map[string]float64{
		"harness.prepare_ms":           p.prepareSumMS,
		"harness.measure_us":           p.measureUS,
		"harness.host_reps":            w.hostReps,
		"core.static_ms":               w.spans.StaticMS,
		"core.cell_ms":                 w.spans.CellMS,
		"core.lane_idle_ms":            w.spans.LaneIdleMS,
		"core.cells_computed":          w.computed,
		"core.cells_cached":            w.cached,
		"dataset.setup_first_ms":       medianOf(p.dataset, func(r coldChildResult) float64 { return r.DatasetFirstMS }),
		"report.export_ms":             p.exportMS,
		"report.encode_ms":             p.encodeMS,
		"report.sweep_key_us":          p.sweepKeyUS,
		"report.query_present_us":      p.presentUS,
		"report.cache_hit_us":          p.cacheHitUS,
		"report.sweep_cache_hit_ratio": w.sweepHit,
		"report.cell_key_us":           p.cellKeyUS,
		"cellstore.load_us":            p.loadUS,
		"cellstore.store_us":           p.storeUS,
		"cellstore.get_raw_us":         p.getRawUS,
		"cellstore.put_raw_us":         p.putRawUS,
		"cellstore.hit_ratio":          w.cellHit,
		"cellstore.corrupt_discarded":  float64(corrupt),
		"server.handler_full_us":       p.handler.fullUS,
		"server.handler_small_us":      p.handler.smallUS,
		"server.residual_us":           p.handler.residualUS,
		"server.shed_total":            float64(w.shed),
		"go.allocs_per_op":             w.allocs,
		"go.alloc_mb_per_op":           w.allocMB,
		"obs.trace_overhead_pct":       w.overheadPct,
		"unattributed_ms":              unattributed,
	}
	for _, k := range topKernels {
		vals["harness.prepare_ms."+k] = p.prepareMS[k]
	}

	tw := tabwriter.NewWriter(e.out, 2, 4, 2, ' ', 0)
	for _, rc := range w.recon {
		fmt.Fprintf(tw, "\n%s: end-to-end %s %.3f ms, reconstructed from the layers:\n", e.workload, rc.what, rc.e2eP50MS)
		for _, r := range rc.rows {
			fmt.Fprintf(tw, "  %s\t%.3f ms\t%.1f%%\n", r.name, r.ms, 100*r.ms/rc.e2eP50MS)
		}
		u := rc.unattributed()
		fmt.Fprintf(tw, "  unattributed (process start, HTTP stack, I/O)\t%.3f ms\t%.1f%%\n", u, 100*u/rc.e2eP50MS)
	}
	fmt.Fprintf(tw, "tracing overhead\t%.2f%%\t\n\nper-layer metrics:\n", w.overheadPct)
	var r result
	r.Attempted = 1
	for _, m := range perLayer {
		fmt.Fprintf(tw, "  %s\t%.4g %s\t\n", m.name, vals[m.name], m.unit)
		r.add(m.name, m.unit, vals[m.name])
	}
	if err := tw.Flush(); err != nil {
		return result{}, err
	}
	e.stealPct = steal.since()
	e.logf("host steal during the traced run: %.1f%% of CPU time", e.stealPct)
	e.logf("chrome trace: %s (%d spans)", tracePath, len(log.spans))
	return r, nil
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

// tracedCold attributes the cold CLI sweep: dataset first touch, the
// sweep's static, cell and idle lane time over its workers, and the
// report export and encode, against the p50 of real CLI ops.
func tracedCold(e *env, p *probes) (tracedWorkload, error) {
	var w tracedWorkload
	var ss []sweepSpans
	for _, r := range p.cold {
		ss = append(ss, sumSweepSpans(r.Spans))
	}
	w.spans = sweepSpans{
		StaticMS:   medianOf(ss, func(s sweepSpans) float64 { return s.StaticMS }),
		CellMS:     medianOf(ss, func(s sweepSpans) float64 { return s.CellMS }),
		LaneIdleMS: medianOf(ss, func(s sweepSpans) float64 { return s.LaneIdleMS }),
		Workers:    ss[0].Workers,
	}
	f := func(g func(coldChildResult) float64) float64 { return medianOf(p.cold, g) }
	w.hostReps = f(func(r coldChildResult) float64 { return float64(r.HostReps) })
	w.computed = f(func(r coldChildResult) float64 { return float64(r.CellsComputed) })
	w.cached = f(func(r coldChildResult) float64 { return float64(r.CellsCached) })
	w.sweepHit = f(func(r coldChildResult) float64 { return ratio(r.CacheHit, r.CacheLookups) })
	w.allocs = f(func(r coldChildResult) float64 { return float64(r.Mallocs) })
	w.allocMB = f(func(r coldChildResult) float64 { return float64(r.AllocBytes) / (1 << 20) })
	untraced := medianOf(p.coldUntraced, func(r coldChildResult) float64 { return r.SweepWallMS })
	traced := f(func(r coldChildResult) float64 { return r.SweepWallMS })
	w.overheadPct = 100 * (traced - untraced) / untraced

	// The untraced sweep wall, split in the proportions the traced
	// spans give; first-touch dataset synthesis happens inside the jobs
	// and is spread over the workers like them.
	workers := float64(max(w.spans.Workers, 1))
	lanes := w.spans.StaticMS + w.spans.CellMS + w.spans.LaneIdleMS
	jobs := w.spans.StaticMS + w.spans.CellMS
	firstTouch := medianOf(p.dataset, func(r coldChildResult) float64 { return r.DatasetFirstMS - r.DatasetWarmMS }) / workers
	firstTouch = min(max(firstTouch, 0), untraced*jobs/lanes)
	share := func(x float64) float64 { return untraced*x/lanes - firstTouch*x/jobs }
	w.recon = []reconstruction{{"p50_ms", median(p.coldCLI), []layerRow{
		{"dataset: first-touch synthesis ÷ workers (inside the jobs)", firstTouch},
		{"harness+core: sweep.static jobs (static proxy) ÷ workers", share(w.spans.StaticMS)},
		{"harness+core: sweep.cell jobs (prepare + MeasureOn) ÷ workers", share(w.spans.CellMS)},
		{"core: idle lanes ÷ workers", untraced * w.spans.LaneIdleMS / lanes},
		{"report: JSONExport", medianOf(p.coldUntraced, func(r coldChildResult) float64 { return r.ExportMS })},
		{"report: WriteJSONReport", medianOf(p.coldUntraced, func(r coldChildResult) float64 { return r.EncodeMS })},
	}}}
	return w, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tracedServe attributes a warm request of each class: the in-process
// handler (report calls plus server residual) against the p50 of real
// HTTP requests to a warmed daemon; the rest is the HTTP stack and the
// client.
func tracedServe(e *env, p *probes) (tracedWorkload, error) {
	hs := p.handler
	var w tracedWorkload

	// End-to-end p50 of this run, against a warmed daemon.
	client := newClient(e.clients)
	defer client.CloseIdleConnections()
	d, err := startWarmDaemon(e, client, hs.mix)
	if err != nil {
		return w, err
	}
	var st loadStats
	var before, after map[string]uint64
	if err = warmUp(e, client, d, hs.mix); err == nil {
		before, err = scrapeMetrics(client, "http://"+d.addr)
	}
	if err == nil {
		st, err = servePhase(client, "http://"+d.addr+"/v1/sweep", hs.mix, e.clients, warmupBlocks, nil,
			func(b int) bool { return b >= e2eServeBlocks })
		for _, cerr := range st.checkErrs {
			e.fail(cerr)
		}
	}
	if err == nil {
		after, err = scrapeMetrics(client, "http://"+d.addr)
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return w, err
	}
	w.shed = after[metricKey(obs.CounterServerShedTotal)] - before[metricKey(obs.CounterServerShedTotal)]

	w.spans = hs.spans
	w.hostReps, w.computed, w.cached = hs.hostReps, hs.computed, hs.cached
	w.sweepHit, w.allocs, w.allocMB, w.overheadPct = hs.sweepHit, hs.allocs, hs.allocMB, hs.overhead
	w.recon = []reconstruction{
		{"p50_ms (small queries)", summarize(st.small.lat).P50, []layerRow{
			{"report: SweepQueryPresent + RunSweepQuery(hit) + JSON encode", hs.reportSmall},
			{"server: handler minus report calls (decode, resolve, admission, write)", hs.smallUS/1000 - hs.reportSmall},
		}},
		{"full_report_p50_ms", summarize(st.full.lat).P50, []layerRow{
			{"report: SweepQueryPresent + RunSweepQuery(hit) + JSON encode", hs.reportFull},
			{"server: handler minus report calls (decode, resolve, admission, write)", hs.residualUS / 1000},
		}},
	}
	return w, nil
}

// tracedStore attributes a -cachedir sweep against a filled store: all
// hits (cache_hit_sweep), or with one new board per op
// (cache_resweep). It runs the op in process through a timing cell
// cache, against the p50 of real CLI ops.
func tracedStore(e *env, p *probes, log *spanLog, newBoards bool) (tracedWorkload, error) {
	var w tracedWorkload
	var out bytes.Buffer
	store := filepath.Join(e.tmp, "e2e-store")
	if r := runOp(&out, e.entobench(), "sweep", "-json", "-cachedir", store); r.Err != nil {
		return w, r.Err
	}
	boardDir := filepath.Join(e.tmp, "boards")
	if err := os.MkdirAll(boardDir, 0o755); err != nil {
		return w, err
	}
	boards := &boardWriter{rng: e.rng(4), dir: boardDir, prefix: fmt.Sprintf("pt%d", e.seed)}
	var walls []float64
	for i := 0; i < e2eStoreOps; i++ {
		args := []string{"sweep", "-json", "-cachedir", store}
		if newBoards {
			a, file, err := boards.next()
			if err != nil {
				return w, err
			}
			args = append(args, "-boards", file, "-archs", "tableiv,"+a.Name)
		}
		r := runOp(&out, e.entobench(), args...)
		if r.Err != nil {
			return w, r.Err
		}
		if !newBoards {
			if err := checkDigest("traced cache_hit_sweep op", out.Bytes(), defaultExportSHA256); err != nil {
				e.fail(err)
			}
		}
		walls = append(walls, msf(r.Wall))
	}

	// In-process ops against a store filled the same way.
	cc, err := report.OpenCellCache(filepath.Join(e.tmp, "traced-store"))
	if err != nil {
		return w, err
	}
	// Straight to the engine: the in-memory sweep cache already holds
	// the default query, and a hit there would leave the store empty.
	if _, err := core.CharacterizeSuiteOpts(core.Suite(), mcu.TableIVSet(), core.SweepOptions{CellCache: cc}); err != nil {
		return w, err
	}
	tc := &timedCellCache{inner: cc, log: log}
	type opStats struct {
		loadMS, boardMS, sweepMS, exportMS, encodeMS, storeLoadMS, storeStoreMS float64
		spans                                                                   sweepSpans
		hits, misses                                                            int
		reps, computed, cached                                                  uint64
		mallocs, bytes                                                          uint64
	}
	var traced, untraced []opStats
	for i := 0; i < 2*storeOpsEach; i++ {
		on := i%2 == 0
		archs := mcu.TableIVSet()
		var st opStats
		if newBoards {
			a, file, err := boards.next()
			if err != nil {
				return w, err
			}
			t0 := time.Now()
			if _, err := mcu.LoadFile(file); err != nil {
				return w, err
			}
			st.boardMS = msf(time.Since(t0))
			archs = append(archs, a)
		}
		tc.reset()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := obs.Counters()
		if on {
			obs.StartTrace()
		}
		traceStart := time.Now()
		// Straight to the engine, as a fresh CLI process is: the
		// in-memory sweep cache would answer a repeated query.
		recs, err := core.CharacterizeSuiteOpts(core.Suite(), archs, core.SweepOptions{CellCache: tc})
		c := report.Characterization{Records: recs}
		st.sweepMS = msf(time.Since(traceStart))
		if on {
			tr := obs.StopTrace()
			log.addObs(0, traceStart, tr.Spans)
			st.spans = sumSweepSpans(tr.Spans)
		}
		if err != nil {
			return w, err
		}
		t2 := time.Now()
		rep := c.JSONExport()
		st.exportMS = msf(time.Since(t2))
		out.Reset()
		t3 := time.Now()
		if err := report.WriteJSONReport(&out, rep); err != nil {
			return w, err
		}
		st.encodeMS = msf(time.Since(t3))
		runtime.ReadMemStats(&m1)
		c1 := obs.Counters()
		st.reps = counterDelta(c0, c1, obs.CounterHarnessHostReps)
		st.computed = counterDelta(c0, c1, obs.CounterSweepCellsComputed)
		st.cached = counterDelta(c0, c1, obs.CounterSweepCellsCached)
		st.mallocs, st.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		tc.mu.Lock()
		st.hits, st.misses = tc.hits, tc.misses
		st.storeLoadMS, st.storeStoreMS = msf(tc.loadSum), msf(tc.stSum)
		tc.mu.Unlock()
		if st.reps != 0 {
			e.fail(fmt.Errorf("%s: harness.reps.host rose by %d on a cached op", e.workload, st.reps))
		}
		if !newBoards {
			if st.misses != 0 {
				e.fail(fmt.Errorf("cache_hit_sweep: %d cell-store misses on a filled store", st.misses))
			}
			if err := checkDigest("traced cache_hit_sweep op", out.Bytes(), defaultExportSHA256); err != nil {
				e.fail(err)
			}
		} else if i == 0 {
			// The first op must equal an uncached sweep of the same query.
			recs, err := core.CharacterizeSuiteOpts(core.Suite(), archs, core.SweepOptions{})
			if err != nil {
				return w, err
			}
			var ref bytes.Buffer
			if err := (report.Characterization{Records: recs}).WriteJSON(&ref); err != nil {
				return w, err
			}
			if err := checkSame("traced cache_resweep op vs uncached sweep", out.Bytes(), ref.Bytes()); err != nil {
				e.fail(err)
			}
		}
		if on {
			traced = append(traced, st)
		} else {
			untraced = append(untraced, st)
		}
	}
	g := func(f func(opStats) float64) float64 { return medianOf(traced, f) }
	w.spans = sweepSpans{
		StaticMS:   g(func(s opStats) float64 { return s.spans.StaticMS }),
		CellMS:     g(func(s opStats) float64 { return s.spans.CellMS }),
		LaneIdleMS: g(func(s opStats) float64 { return s.spans.LaneIdleMS }),
		Workers:    traced[0].spans.Workers,
	}
	w.hostReps = g(func(s opStats) float64 { return float64(s.reps) })
	w.computed = g(func(s opStats) float64 { return float64(s.computed) })
	w.cached = g(func(s opStats) float64 { return float64(s.cached) })
	w.cellHit = g(func(s opStats) float64 { return ratio(uint64(s.hits), uint64(s.hits+s.misses)) })
	w.allocs = g(func(s opStats) float64 { return float64(s.mallocs) })
	w.allocMB = g(func(s opStats) float64 { return float64(s.bytes) / (1 << 20) })
	un := medianOf(untraced, func(s opStats) float64 { return s.sweepMS })
	tr := g(func(s opStats) float64 { return s.sweepMS })
	w.overheadPct = 100 * (tr - un) / un
	workers := float64(max(w.spans.Workers, 1))
	loadMS := g(func(s opStats) float64 { return s.storeLoadMS }) / workers
	storeMS := g(func(s opStats) float64 { return s.storeStoreMS }) / workers
	var rows []layerRow
	if newBoards {
		rows = append(rows, layerRow{"mcu: board file load", g(func(s opStats) float64 { return s.boardMS })})
	}
	rows = append(rows,
		layerRow{"cellstore: loads ÷ workers (via PersistentCellCache)", loadMS},
		layerRow{"cellstore: stores ÷ workers", storeMS},
		layerRow{"core+harness: rest of the sweep (keys, rehydrated MeasureOn, assembly)", un - loadMS - storeMS},
		layerRow{"report: JSONExport", g(func(s opStats) float64 { return s.exportMS })},
		layerRow{"report: WriteJSONReport", g(func(s opStats) float64 { return s.encodeMS })},
	)
	w.recon = []reconstruction{{"p50_ms", median(walls), rows}}
	return w, nil
}

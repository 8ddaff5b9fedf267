package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/server"
)

// Layer probes shared by every workload's traced run: direct, timed
// calls into each layer's public functions.

// probes holds the workload-independent per-layer measurements.
type probes struct {
	prepareMS    map[string]float64 // per kernel, median of prepareRounds
	prepareSumMS float64
	measureUS    float64
	sweepKeyUS   float64
	presentUS    float64
	cacheHitUS   float64
	exportMS     float64
	encodeMS     float64
	cellKeyUS    float64
	loadUS       float64
	storeUS      float64
	getRawUS     float64
	putRawUS     float64
	handler      handlerStats

	dataset, cold, coldUntraced []coldChildResult
	coldCLI                     []float64 // wall ms of real `entobench sweep -json` ops, interleaved with the children
}

// handlerStats is the in-process entobenchd handler over the warm_serve
// mix, timed request by request untraced and then traced.
type handlerStats struct {
	mix         *mix
	fullUS      float64 // p50 of the full-query class, untraced
	smallUS     float64 // p50 of the small-query class, untraced
	residualUS  float64 // full class minus its report calls
	reportFull  float64 // ms, the full query's report calls
	reportSmall float64 // ms, median over the small requests of their report calls
	spans       sweepSpans
	hostReps    float64 // per request
	computed    float64
	cached      float64
	sweepHit    float64
	allocs      float64
	allocMB     float64
	overhead    float64 // % traced over untraced p50
}

func runProbes(e *env, log *spanLog) (*probes, error) {
	p := &probes{prepareMS: map[string]float64{}}
	report.SetSweepCacheCapacity(serveCacheCap)

	// Cold ops in fresh processes, alternating traced and untraced so
	// both modes see the same machine state.
	for i := 0; i < coldChildren; i++ {
		r, _, err := runColdChild("-dataset")
		if err != nil {
			return nil, err
		}
		p.dataset = append(p.dataset, r)
		for _, on := range []bool{true, false} {
			r, start, err := runColdChild("-trace=" + strconv.FormatBool(on))
			if err != nil {
				return nil, err
			}
			if r.Digest != defaultExportSHA256 {
				e.fail(fmt.Errorf("traced cold op export sha256 %s, want %s", r.Digest, defaultExportSHA256))
			}
			if on {
				log.addObs(childLane(i), start, r.Spans)
				p.cold = append(p.cold, r)
			} else {
				p.coldUntraced = append(p.coldUntraced, r)
			}
		}
		// Real CLI ops in the same round, so the end-to-end p50 the
		// cold_sweep table rebuilds sees the same machine state.
		var out bytes.Buffer
		for j := 0; j < e2eColdOps; j++ {
			r := runOp(&out, e.entobench(), "sweep", "-json")
			if r.Err != nil {
				return nil, r.Err
			}
			if err := checkDigest("cold_sweep export", out.Bytes(), defaultExportSHA256); err != nil {
				e.fail(err)
			}
			p.coldCLI = append(p.coldCLI, msf(r.Wall))
		}
	}

	// harness: prepare every kernel with the dataset masters warm (the
	// first round warms them), then measure each prepared kernel on
	// every Table IV cell.
	specs, tableIV := core.Suite(), mcu.TableIVSet()
	known := map[string]bool{}
	perKernel := map[string][]float64{}
	prepared := make([]*harness.Prepared, len(specs))
	for _, s := range specs {
		known[s.Name] = true
		if err := s.Factory().Setup(); err != nil {
			return nil, fmt.Errorf("warm %s: %w", s.Name, err)
		}
	}
	for _, k := range topKernels {
		if !known[k] {
			return nil, fmt.Errorf("kernel %q is not in the suite", k)
		}
	}
	for round := 0; round < prepareRounds; round++ {
		for i, s := range specs {
			ref, ok := firstFit(s, tableIV)
			if !ok {
				continue
			}
			var err error
			d := log.timeCall("harness.PrepareContext", func() {
				prepared[i], err = harness.PrepareContext(context.Background(), s.Factory(), ref, s.Prec, harness.DefaultConfig())
			})
			if err != nil {
				return nil, fmt.Errorf("prepare %s: %w", s.Name, err)
			}
			perKernel[s.Name] = append(perKernel[s.Name], msf(d))
		}
	}
	for name, xs := range perKernel {
		p.prepareMS[name] = median(xs)
		p.prepareSumMS += p.prepareMS[name]
	}
	var measure []time.Duration
	for i, s := range specs {
		if prepared[i] == nil {
			continue
		}
		for _, a := range tableIV {
			if !s.Fits(a) {
				continue
			}
			for _, on := range []bool{true, false} {
				cfg := harness.DefaultConfig()
				cfg.CacheOn = on
				var err error
				measure = append(measure, log.timeCall("harness.MeasureOn", func() {
					_, err = prepared[i].MeasureOn(a, s.Prec, cfg)
				}))
				if err != nil {
					return nil, fmt.Errorf("measure %s on %s: %w", s.Name, a.Name, err)
				}
			}
		}
	}
	p.measureUS = us(medianDur(measure))

	// report: key derivation, cache presence and warm lookup, export
	// and encode of the full default query.
	full, err := report.RunSweepQuery(specs, tableIV, core.SweepOptions{})
	if err != nil {
		return nil, err
	}
	var keyT, presentT, hitT, exportT, encodeT, cellKeyT []time.Duration
	present := true
	for i := 0; i < keyCalls && err == nil; i++ {
		keyT = append(keyT, log.timeCall("report.SweepKey", func() {
			_ = report.SweepKey(specs, tableIV, harness.DefaultConfig(), "")
		}))
		presentT = append(presentT, log.timeCall("report.SweepQueryPresent", func() {
			present = present && report.SweepQueryPresent(specs, tableIV, nil)
		}))
		hitT = append(hitT, log.timeCall("report.RunSweepQuery(warm)", func() {
			_, err = report.RunSweepQuery(specs, tableIV, core.SweepOptions{})
		}))
		s, a := specs[i%len(specs)], tableIV[i%len(tableIV)]
		cellKeyT = append(cellKeyT, log.timeCall("report.CellKey", func() {
			_ = report.CellKey(s, a, i%2 == 0, "")
		}))
	}
	if err == nil && !present {
		err = errors.New("full query not present in the sweep cache after it ran")
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for i := 0; i < encodeCalls; i++ {
		var rep report.JSONReport
		exportT = append(exportT, log.timeCall("report.JSONExport", func() { rep = full.JSONExport() }))
		buf.Reset()
		encodeT = append(encodeT, log.timeCall("report.WriteJSONReport", func() { err = report.WriteJSONReport(&buf, rep) }))
		if err != nil {
			return nil, err
		}
	}
	if err := checkDigest("traced full report", buf.Bytes(), defaultExportSHA256); err != nil {
		e.fail(err)
	}
	p.sweepKeyUS, p.presentUS, p.cacheHitUS = us(medianDur(keyT)), us(medianDur(presentT)), us(medianDur(hitT))
	p.cellKeyUS = us(medianDur(cellKeyT))
	p.exportMS, p.encodeMS = msf(medianDur(exportT)), msf(medianDur(encodeT))

	// cellstore: fill a store through the timing decorator, then time
	// raw Backing().Get/Put.
	cc, err := report.OpenCellCache(filepath.Join(e.tmp, "probe-store"))
	if err != nil {
		return nil, err
	}
	tc := &timedCellCache{inner: cc, log: log}
	if _, err := core.CharacterizeSuiteOpts(specs, tableIV, core.SweepOptions{CellCache: tc}); err != nil {
		return nil, err
	}
	p.storeUS = us(medianDur(tc.stores))
	tc.reset()
	if _, err := core.CharacterizeSuiteOpts(specs, tableIV, core.SweepOptions{CellCache: tc}); err != nil {
		return nil, err
	}
	if tc.misses != 0 {
		return nil, fmt.Errorf("probe store: %d misses on a warm re-sweep", tc.misses)
	}
	p.loadUS = us(medianDur(tc.loads))
	store := cc.Backing()
	key := report.CellKey(specs[0], tableIV[0], true, "")
	payload, ok := store.Get(key)
	if !ok {
		return nil, errors.New("probe store lost a cell it just stored")
	}
	var getT, putT []time.Duration
	for i := 0; i < rawStoreCalls; i++ {
		getT = append(getT, log.timeCall("cellstore.Get", func() { _, ok = store.Get(key) }))
		k := fmt.Sprintf("cell-%064x", i)
		putT = append(putT, log.timeCall("cellstore.Put", func() { err = store.Put(k, payload) }))
		if !ok || err != nil {
			return nil, fmt.Errorf("raw cellstore probe: hit=%v err=%v", ok, err)
		}
	}
	p.getRawUS, p.putRawUS = us(medianDur(getT)), us(medianDur(putT))
	p.handler, err = probeHandler(e, log)
	return p, err
}

// firstFit is the reference core the sweep prepares a kernel on.
func firstFit(s core.Spec, archs []mcu.Arch) (mcu.Arch, bool) {
	for _, a := range archs {
		if s.Fits(a) {
			return a, true
		}
	}
	return mcu.Arch{}, false
}

// timedCellCache is a core.CellCache decorator timing every load and
// store and counting hits.
type timedCellCache struct {
	inner core.CellCache
	log   *spanLog

	mu             sync.Mutex
	loads, stores  []time.Duration
	hits, misses   int
	loadSum, stSum time.Duration
}

func (t *timedCellCache) load(start time.Time, ok bool) {
	d := time.Since(start)
	t.log.add("cellstore.load", start, d)
	t.mu.Lock()
	t.loads = append(t.loads, d)
	t.loadSum += d
	if ok {
		t.hits++
	} else {
		t.misses++
	}
	t.mu.Unlock()
}

func (t *timedCellCache) store(start time.Time) {
	d := time.Since(start)
	t.log.add("cellstore.store", start, d)
	t.mu.Lock()
	t.stores = append(t.stores, d)
	t.stSum += d
	t.mu.Unlock()
}

func (t *timedCellCache) LoadStatic(s core.Spec) (core.StaticCellResult, bool) {
	t0 := time.Now()
	r, ok := t.inner.LoadStatic(s)
	t.load(t0, ok)
	return r, ok
}

func (t *timedCellCache) StoreStatic(s core.Spec, r core.StaticCellResult) {
	t0 := time.Now()
	t.inner.StoreStatic(s, r)
	t.store(t0)
}

func (t *timedCellCache) LoadCell(s core.Spec, a mcu.Arch, on bool, be string) (core.MeasuredCellResult, bool) {
	t0 := time.Now()
	r, ok := t.inner.LoadCell(s, a, on, be)
	t.load(t0, ok)
	return r, ok
}

func (t *timedCellCache) StoreCell(s core.Spec, a mcu.Arch, on bool, be string, r core.MeasuredCellResult) {
	t0 := time.Now()
	t.inner.StoreCell(s, a, on, be, r)
	t.store(t0)
}

// reset clears the tallies between ops.
func (t *timedCellCache) reset() {
	t.mu.Lock()
	t.loads, t.stores, t.hits, t.misses, t.loadSum, t.stSum = nil, nil, 0, 0, 0, 0
	t.mu.Unlock()
}

// probeHandler times the in-process entobenchd handler over the
// warm_serve mix: each request through Handler().ServeHTTP, untraced
// and then traced, after every query was answered once.
func probeHandler(e *env, log *spanLog) (handlerStats, error) {
	var hs handlerStats
	m, err := serveMix(e.rng(1))
	if err != nil {
		return hs, err
	}
	if err := referenceBytes(m.qs); err != nil {
		return hs, err
	}
	hs.mix = m
	h := server.New(server.Options{}).Handler()
	serveOne := func(q *query) (time.Duration, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(q.body))
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		log.add("server.Handler", t0, d, obs.Arg{Key: "full", Val: strconv.FormatBool(q.full)})
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("handler %s: status %d", q.body, rec.Code)
		}
		return d, checkSame("handler "+string(q.body), rec.Body.Bytes(), q.ref)
	}
	for _, q := range m.qs {
		if _, err := serveOne(q); err != nil {
			return hs, err
		}
	}
	var reqs []int
	for b := 0; b < handlerBlocks; b++ {
		reqs = append(reqs, m.block(b)...)
	}
	var all [2][]time.Duration // untraced, traced
	var full, small []time.Duration
	var m0, m1 runtime.MemStats
	c0 := obs.Counters()
	runtime.ReadMemStats(&m0)
	for mode := 0; mode < 2; mode++ {
		traceStart := time.Now()
		if mode == 1 {
			obs.StartTrace()
		}
		for _, qi := range reqs {
			q := m.qs[qi]
			dt, err := serveOne(q)
			if err != nil {
				e.fail(err)
				continue
			}
			all[mode] = append(all[mode], dt)
			if mode == 0 {
				if q.full {
					full = append(full, dt)
				} else {
					small = append(small, dt)
				}
			}
		}
		if mode == 1 {
			tr := obs.StopTrace()
			log.addObs(0, traceStart, tr.Spans)
			hs.spans = sumSweepSpans(tr.Spans)
		}
	}
	runtime.ReadMemStats(&m1)
	c1 := obs.Counters()
	n := float64(2 * len(reqs))
	hs.hostReps = float64(counterDelta(c0, c1, obs.CounterHarnessHostReps)) / n
	hs.computed = float64(counterDelta(c0, c1, obs.CounterSweepCellsComputed)) / n
	hs.cached = float64(counterDelta(c0, c1, obs.CounterSweepCellsCached)) / n
	hits := counterDelta(c0, c1, obs.CounterSweepCacheHit)
	hs.sweepHit = ratio(hits, hits+counterDelta(c0, c1, obs.CounterSweepCacheMiss)+counterDelta(c0, c1, obs.CounterSweepCacheCoalesced))
	hs.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	hs.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / n
	un, tr := medianDur(all[0]), medianDur(all[1])
	hs.overhead = 100 * (float64(tr) - float64(un)) / float64(un)
	hs.fullUS, hs.smallUS = us(medianDur(full)), us(medianDur(small))

	// Per-request report cost: each distinct query's report calls
	// (presence check, warm lookup, JSON encode), timed warm reportReps
	// times right after the handler phase. The full query's median
	// leaves the full-class handler residual; the median over the small
	// requests is the small class's report share.
	reportUS := make([]float64, len(m.qs))
	for i, q := range m.qs {
		specs, archs, err := resolveQuery(q.req)
		if err != nil {
			return hs, err
		}
		reps := make([]float64, reportReps)
		for r := range reps {
			t0 := time.Now()
			report.SweepQueryPresent(specs, archs, nil)
			c, err := report.RunSweepQuery(specs, archs, core.SweepOptions{})
			if err == nil {
				var buf bytes.Buffer // as the handler renders: a fresh buffer per request
				err = c.WriteJSON(&buf)
			}
			reps[r] = us(time.Since(t0))
			if err != nil {
				return hs, err
			}
		}
		reportUS[i] = median(reps)
	}
	hs.residualUS = hs.fullUS - reportUS[0]
	hs.reportFull = reportUS[0] / 1000
	var perSmall []float64
	for _, qi := range reqs {
		if !m.qs[qi].full {
			perSmall = append(perSmall, reportUS[qi])
		}
	}
	hs.reportSmall = median(perSmall) / 1000
	return hs, nil
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/server"
)

// Shape of the warm_serve traffic. The mix is synthetic: no request
// log of the daemon exists. The ~20% full-query share comes from the
// benchmark's specification; the small-query shapes are the two
// request examples of docs/server.md and README.md; the count of
// distinct queries, the split between the two shapes and the block
// sizes are this benchmark's choices. The gated metrics are per class,
// so a wrong guess about the share cannot hide a regression.
const (
	fullBlock     = 50               // requests in a full-query block
	smallBlock    = 200              // requests in a small-query block: with alternating blocks, 20% of requests are full
	smallQueries  = 24               // distinct small queries, half of each documented shape
	smallOrderLen = 256 * smallBlock // length of the seeded small-query order (cycled)
	warmupBlocks  = 8                // closed-loop blocks (2000 requests) after set-up, before timing
	serveCacheCap = 4096             // entobenchd -cachecap: far above the mix, so nothing is evicted
	serveSetups   = 9                // daemon starts per run; setup_s is their median
)

// query is one distinct request body of the mix with the bytes a
// correct server answers.
type query struct {
	req  server.SweepRequest
	body []byte
	full bool
	ref  []byte
}

// mix is the warm_serve traffic: qs[0] is the full default query,
// qs[1] the pinned small query, the rest generated small queries; order
// is the seeded order in which small blocks walk qs[1:].
type mix struct {
	qs    []*query
	order []int
}

// block returns the query indices of block b. Blocks alternate: even
// blocks ask for the full default query fullBlock times, odd blocks
// send the next smallBlock small queries of the seeded order. Blocks
// are class-pure so the daemon's CPU time can be split by class.
func (m *mix) block(b int) []int {
	if b%2 == 0 {
		return make([]int, fullBlock) // all qs[0]
	}
	i := (b / 2 * smallBlock) % len(m.order)
	return m.order[i : i+smallBlock]
}

// mixSetSeed fixes which small queries the mix holds. The set is the
// same on every run, so set-up time and the small-query class do not
// depend on the run's seed; the seed drives the request order.
const mixSetSeed = 1

// serveMix builds the mix; order draws the request order. Small queries
// take the two shapes the docs show: one kernel on one Table IV board
// ({"kernels":["madgwick"],"archs":"M4"}, pinned) and two kernels on
// two boards ({"kernels":["madgwick","mahony"],"archs":"M4,M33"}).
// Every kernel of a query fits every board of it.
func serveMix(order *rand.Rand) (*mix, error) {
	rng := rand.New(rand.NewSource(mixSetSeed))
	specs, boards := core.Suite(), mcu.TableIVSet()
	m := &mix{}
	seen := map[string]bool{}
	addQuery := func(req server.SweepRequest, full bool) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		if !seen[string(body)] {
			seen[string(body)] = true
			m.qs = append(m.qs, &query{req: req, body: body, full: full})
		}
		return nil
	}
	if err := addQuery(server.SweepRequest{}, true); err != nil {
		return nil, err
	}
	if err := addQuery(server.SweepRequest{Kernels: []string{pinnedSmallKernel}, Archs: pinnedSmallArchs}, false); err != nil {
		return nil, err
	}
	for len(m.qs) < 1+smallQueries {
		n := 2 - len(m.qs)%2 // alternate the two shapes, 12 of each with the pinned one
		ks, bs := rng.Perm(len(specs))[:n], rng.Perm(len(boards))[:n]
		var req server.SweepRequest
		fits := true
		for _, k := range ks {
			req.Kernels = append(req.Kernels, specs[k].Name)
			for _, b := range bs {
				fits = fits && specs[k].Fits(boards[b])
			}
		}
		for i, b := range bs {
			if i > 0 {
				req.Archs += ","
			}
			req.Archs += boards[b].Name
		}
		if !fits {
			continue
		}
		if err := addQuery(req, false); err != nil {
			return nil, err
		}
	}
	m.order = make([]int, smallOrderLen)
	for i := range m.order {
		m.order[i] = 1 + order.Intn(len(m.qs)-1)
	}
	return m, nil
}

// resolveQuery maps a wire request to the sweep selection exactly as
// the server documents it: empty kernels means the suite, empty archs
// the Table IV set.
func resolveQuery(req server.SweepRequest) ([]core.Spec, []mcu.Arch, error) {
	specs := core.Suite()
	if len(req.Kernels) > 0 {
		specs = nil
		for _, n := range req.Kernels {
			s, ok := core.ByName(n)
			if !ok {
				return nil, nil, fmt.Errorf("unknown kernel %q", n)
			}
			specs = append(specs, s)
		}
	}
	if req.Archs == "" {
		return specs, mcu.TableIVSet(), nil
	}
	archs, err := mcu.ResolveArchs(req.Archs)
	return specs, archs, err
}

// referenceBytes computes each query's expected response in this
// process through the library — an independent path from the daemon —
// and checks the two pinned digests.
func referenceBytes(qs []*query) error {
	report.SetSweepCacheCapacity(serveCacheCap)
	for _, q := range qs {
		specs, archs, err := resolveQuery(q.req)
		if err != nil {
			return err
		}
		c, err := report.RunSweepQuery(specs, archs, core.SweepOptions{})
		if err != nil {
			return fmt.Errorf("reference sweep %s: %w", q.body, err)
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			return err
		}
		q.ref = buf.Bytes()
	}
	if err := checkDigest("reference full query", qs[0].ref, defaultExportSHA256); err != nil {
		return err
	}
	return checkDigest("reference pinned small query", qs[1].ref, pinnedSmallSHA256)
}

// classStats is what a phase observed for one query class.
type classStats struct {
	lat  []time.Duration // per served request
	cpu  time.Duration   // daemon CPU over the class's blocks
	wall time.Duration   // summed block wall time
}

// loadStats is what a closed-loop phase observed.
type loadStats struct {
	t           tally
	full, small classStats
	checkErrs   []error
}

func (s *loadStats) served() int { return len(s.full.lat) + len(s.small.lat) }

// servePhase sends blocks first, first+1, … of the mix until stop
// returns true, by clients closed-loop callers: each sends its next
// request only after the previous reply was read in full, and a block
// ends when all its replies were read. cpu, when not nil, reads the
// daemon's CPU time between blocks. Every 200 body is compared with its
// query's reference bytes after the request's clock stops.
func servePhase(client *http.Client, url string, m *mix, clients, first int, cpu func() (time.Duration, error), stop func(blocks int) bool) (loadStats, error) {
	var st loadStats
	for b := first; !stop(b - first); b++ {
		cls := &st.small
		if b%2 == 0 {
			cls = &st.full
		}
		var c0, c1 time.Duration
		var err error
		if cpu != nil {
			if c0, err = cpu(); err != nil {
				return st, err
			}
		}
		t0 := time.Now()
		runBlock(client, url, m.qs, m.block(b), clients, &st, cls)
		cls.wall += time.Since(t0)
		if cpu != nil {
			if c1, err = cpu(); err != nil {
				return st, err
			}
			cls.cpu += c1 - c0
		}
	}
	return st, nil
}

// runBlock sends the requests of one block and records them in st and
// cls.
func runBlock(client *http.Client, url string, qs []*query, reqs []int, clients int, st *loadStats, cls *classStats) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				q := qs[reqs[i]]
				t0 := time.Now()
				status, err := post(client, url, q.body, &buf)
				dt := time.Since(t0)
				ok := err == nil && status == http.StatusOK
				var cerr error
				if !ok {
					cerr = fmt.Errorf("request %s: status %d: %v", q.body, status, err)
				} else {
					cerr = checkSame("warm_serve "+string(q.body), buf.Bytes(), q.ref)
				}
				mu.Lock()
				st.t.add(ok)
				if ok {
					cls.lat = append(cls.lat, dt)
				}
				if cerr != nil && len(st.checkErrs) < 20 {
					st.checkErrs = append(st.checkErrs, cerr)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// post sends one sweep request and reads the whole reply into buf.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// scrapeMetrics reads the daemon's /metrics counters.
func scrapeMetrics(client *http.Client, base string) (map[string]uint64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]uint64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, v, ok := strings.Cut(line, " "); ok {
			if n, err := strconv.ParseUint(v, 10, 64); err == nil {
				out[name] = n
			}
		}
	}
	return out, sc.Err()
}

// metricKey is the /metrics name of an obs counter.
func metricKey(counter string) string {
	return server.MetricsPrefix + strings.ReplaceAll(counter, ".", "_")
}

func newClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// startWarmDaemon starts entobenchd and answers every query of the mix
// once, checking each reply: the set-up a user pays before the daemon
// serves the mix from its sweep cache.
func startWarmDaemon(e *env, client *http.Client, m *mix) (*daemon, error) {
	d, err := startDaemon(e.entobenchd(), "-cachecap", strconv.Itoa(serveCacheCap))
	if err != nil {
		return nil, err
	}
	url := "http://" + d.addr + "/v1/sweep"
	var buf bytes.Buffer
	for _, q := range m.qs {
		status, err := post(client, url, q.body, &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, firstLine(buf.String()))
		}
		if err != nil {
			_ = d.stop()
			return nil, fmt.Errorf("warm %s: %w", q.body, err)
		}
		if err := checkSame("warm_serve warm "+string(q.body), buf.Bytes(), q.ref); err != nil {
			e.fail(err)
		}
	}
	return d, nil
}

// warmUp runs the closed-loop warm-up blocks: the first requests after
// start are slower than the steady state.
func warmUp(e *env, client *http.Client, d *daemon, m *mix) error {
	st, err := servePhase(client, "http://"+d.addr+"/v1/sweep", m, e.clients, 0, nil,
		func(b int) bool { return b >= warmupBlocks })
	for _, cerr := range st.checkErrs {
		e.fail(cerr)
	}
	return err
}

// warmServe: one op is one POST /v1/sweep to a warmed entobenchd, sent
// by nproc closed-loop clients in alternating full-query and
// small-query blocks. Set-up is daemon start to ready plus answering
// every query of the mix once.
func warmServe(e *env) (result, error) {
	m, err := serveMix(e.rng(1))
	if err != nil {
		return result{}, err
	}
	if err := referenceBytes(m.qs); err != nil {
		return result{}, err
	}
	client := newClient(e.clients)
	defer client.CloseIdleConnections()

	var setup []float64
	var d *daemon
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return result{}, err
			}
		}
		client.CloseIdleConnections()
		t0 := time.Now()
		if d, err = startWarmDaemon(e, client, m); err != nil {
			return result{}, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer d.stop()
	if err := warmUp(e, client, d, m); err != nil {
		return result{}, err
	}
	base := "http://" + d.addr
	before, err := scrapeMetrics(client, base)
	if err != nil {
		return result{}, err
	}
	steal := readStealTicks()
	deadline := time.Now().Add(e.seconds)
	st, err := servePhase(client, base+"/v1/sweep", m, e.clients, warmupBlocks, d.cpuTime,
		func(b int) bool { return b%2 == 0 && time.Now().After(deadline) })
	e.stealPct = steal.since()
	if err != nil {
		return result{}, err
	}
	after, err := scrapeMetrics(client, base)
	if err != nil {
		return result{}, err
	}
	rssKB, err := d.peakRSSKB()
	if err != nil {
		return result{}, err
	}
	for _, err := range st.checkErrs {
		e.fail(err)
	}
	delta := func(counter string) uint64 { return after[metricKey(counter)] - before[metricKey(counter)] }
	if n := delta(obs.CounterSweepCacheMiss); n != 0 {
		e.fail(fmt.Errorf("warm_serve: sweep.cache.miss rose by %d in the timed phase", n))
	}
	if n := delta(obs.CounterServerShedTotal); n != 0 {
		e.fail(fmt.Errorf("warm_serve: server.shed_total rose by %d in the timed phase", n))
	}
	if n := delta(obs.CounterSweepCacheHit); n != uint64(st.served()) {
		e.fail(fmt.Errorf("warm_serve: %d cache hits for %d served requests", n, st.served()))
	}

	return serveMetrics(e, st, setup, rssKB, d.stderr.count()), nil
}

// serveMetrics renders warm_serve's end-to-end metrics. The gated ones
// are per class: p50_ms and cpu_ms_per_op over the small-query
// requests, full_report_* over the full-query requests. The mixed
// numbers depend on the synthetic share and are not gated.
func serveMetrics(e *env, st loadStats, setup []float64, rssKB int64, stderrLines int) result {
	all := summarize(append(append([]time.Duration(nil), st.full.lat...), st.small.lat...))
	full, small := summarize(st.full.lat), summarize(st.small.lat)
	perOp := func(c classStats) float64 { return msf(c.cpu) / float64(max(len(c.lat), 1)) }
	opsPerS := float64(st.served()) / (st.full.wall + st.small.wall).Seconds()
	e.logf("host steal during the timed phase: %.1f%% of CPU time", e.stealPct)
	e.logf("warm_serve: %d clients closed-loop, %d requests (%d full, %d small), failed=%d fail_frac=%.4f, daemon stderr lines=%d",
		e.clients, st.t.Attempted, full.N, small.N, st.t.Failed, st.t.failFrac(), stderrLines)
	e.logf("small queries: p50 %.3f ms, %.3f ms CPU each | full query: p50 %.3f ms, %.3f ms CPU each",
		small.P50, perOp(st.small), full.P50, perOp(st.full))
	e.logf("all requests: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms%s, %.1f ops/s",
		all.P50, all.P90, all.P99, tailNote(all.N, 99), opsPerS)
	r := result{Attempted: st.t.Attempted, Failed: st.t.Failed}
	r.add("p50_ms", "ms", small.P50)
	r.add("full_report_p50_ms", "ms", full.P50)
	r.add("cpu_ms_per_op", "ms", perOp(st.small))
	r.add("full_report_cpu_ms", "ms", perOp(st.full))
	r.add("peak_rss_mb", "MB", float64(rssKB)/1024)
	r.add("setup_s", "s", median(setup))
	r.addUngated("mix_p50_ms", "ms", all.P50)
	r.addUngated("p90_ms", "ms", all.P90)
	r.addUngated("p99_ms", "ms", all.P99)
	r.addUngated("ops_per_s", "1/s", opsPerS)
	return r
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mcu"
	"repro/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample p50 = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 99, false}, // rank 990, 9 beyond
		{100, 90, true},  // rank 90, 10 beyond
		{65, 90, false},  // rank 59, 6 beyond
		{20, 50, true},   // rank 10, 10 beyond
		{0, 50, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestFailFracAccounting(t *testing.T) {
	var tl tally
	if tl.failFrac() != 0 {
		t.Fatal("fail_frac of nothing attempted must be 0")
	}
	for i := 0; i < 8; i++ {
		tl.add(i%4 != 0)
	}
	if tl.Attempted != 8 || tl.Failed != 2 || tl.failFrac() != 0.25 {
		t.Fatalf("tally = %+v fail_frac %v, want 8 attempted, 2 failed, 0.25", tl, tl.failFrac())
	}
}

// A shed (429) and a server error count as failed and contribute no
// latency sample; a wrong body is a check failure, not a failed op.
func TestRunBlockCountsShedsAsFailed(t *testing.T) {
	ref := []byte("report\n")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b bytes.Buffer
		_, _ = b.ReadFrom(r.Body)
		switch b.String() {
		case "shed":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case "broken":
			w.WriteHeader(http.StatusInternalServerError)
		case "wrong":
			_, _ = w.Write([]byte("other\n"))
		default:
			_, _ = w.Write(ref)
		}
	}))
	defer srv.Close()
	qs := []*query{
		{body: []byte("small"), ref: ref},
		{body: []byte("shed"), ref: ref},
		{body: []byte("broken"), ref: ref},
		{body: []byte("wrong"), ref: ref},
	}
	client := newClient(2)
	defer client.CloseIdleConnections()
	var st loadStats
	runBlock(client, srv.URL, qs, []int{0, 0, 1, 0, 2, 3, 0, 0}, 2, &st, &st.small)
	if st.t.Attempted != 8 || st.t.Failed != 2 {
		t.Fatalf("attempted %d failed %d, want 8 and 2", st.t.Attempted, st.t.Failed)
	}
	if len(st.small.lat) != 6 || len(st.full.lat) != 0 {
		t.Fatalf("samples small=%d full=%d, want 6 and 0", len(st.small.lat), len(st.full.lat))
	}
	var wrong int
	for _, err := range st.checkErrs {
		if strings.Contains(err.Error(), "differs") {
			wrong++
		}
	}
	if wrong != 1 || len(st.checkErrs) != 3 {
		t.Fatalf("check errors %v, want two failed requests and exactly one byte mismatch", st.checkErrs)
	}
}

// The mix's request order is seeded and its query set is not; 20% of
// requests ask for the full query, in class-pure blocks; every small
// query fits its boards and takes a documented shape.
func TestServeMix(t *testing.T) {
	m, err := serveMix(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	again, _ := serveMix(rand.New(rand.NewSource(5)))
	other, _ := serveMix(rand.New(rand.NewSource(6)))
	if len(m.qs) != 1+smallQueries || !m.qs[0].full || string(m.qs[0].body) != "{}" {
		t.Fatalf("mix has %d queries, first %s", len(m.qs), m.qs[0].body)
	}
	if string(m.qs[1].body) != `{"kernels":["madgwick"],"archs":"M4"}` {
		t.Fatalf("pinned small query is %s", m.qs[1].body)
	}
	shapes := map[int]int{}
	for i, q := range m.qs {
		if string(q.body) != string(other.qs[i].body) {
			t.Fatalf("query %d is %s with one seed and %s with another; the set must not depend on the seed", i, q.body, other.qs[i].body)
		}
		if i == 0 {
			continue
		}
		specs, archs, err := resolveQuery(q.req)
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) != len(archs) || len(specs) > 2 || q.full {
			t.Fatalf("query %s has %d kernels on %d boards", q.body, len(specs), len(archs))
		}
		shapes[len(specs)]++
		for _, s := range specs {
			for _, a := range archs {
				if !s.Fits(a) {
					t.Fatalf("query %s: %s does not fit %s", q.body, s.Name, a.Name)
				}
			}
		}
	}
	if shapes[1] != smallQueries/2 || shapes[2] != smallQueries/2 {
		t.Fatalf("shapes %v, want %d of each", shapes, smallQueries/2)
	}
	if !slices.Equal(m.order, again.order) || slices.Equal(m.order, other.order) {
		t.Fatal("the request order must follow the seed")
	}
	var full, all int
	for b := 0; b < 40; b++ {
		for _, qi := range m.block(b) {
			all++
			if m.qs[qi].full != (b%2 == 0) {
				t.Fatalf("block %d is not class-pure", b)
			}
			if m.qs[qi].full {
				full++
			}
		}
	}
	if 5*full != all {
		t.Fatalf("%d of %d requests ask for the full query, want 20%%", full, all)
	}
}

// Daemon CPU read around each block is charged to that block's class.
func TestServePhaseSplitsCPUByClass(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("r"))
	}))
	defer srv.Close()
	m := &mix{qs: []*query{{body: []byte("f"), full: true, ref: []byte("r")}, {body: []byte("s"), ref: []byte("r")}}}
	m.order = make([]int, smallBlock)
	for i := range m.order {
		m.order[i] = 1
	}
	var now time.Duration
	reads := 0
	cpu := func() (time.Duration, error) {
		// Reads come in pairs around a block; the daemon spends 3 ms
		// in each full block (blocks 0, 2) and 1 ms in each small one.
		reads++
		if reads%2 == 0 {
			if reads%4 == 2 {
				now += 3 * time.Millisecond
			} else {
				now += time.Millisecond
			}
		}
		return now, nil
	}
	client := newClient(2)
	defer client.CloseIdleConnections()
	st, err := servePhase(client, srv.URL, m, 2, 0, cpu, func(b int) bool { return b >= 4 })
	if err != nil {
		t.Fatal(err)
	}
	if len(st.full.lat) != 2*fullBlock || len(st.small.lat) != 2*smallBlock || st.t.Failed != 0 {
		t.Fatalf("full %d small %d failed %d", len(st.full.lat), len(st.small.lat), st.t.Failed)
	}
	if st.full.cpu != 6*time.Millisecond || st.small.cpu != 2*time.Millisecond {
		t.Fatalf("cpu full %v small %v, want 6ms and 2ms", st.full.cpu, st.small.cpu)
	}
}

func TestNewBoardIsValidAndFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		name := "pbtest-" + string(rune('a'+i%26)) + strings.Repeat("x", i/26)
		a, err := newBoard(rng, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("board %d invalid: %v", i, err)
		}
		if a.Name != name {
			t.Fatalf("board named %q, want %q", a.Name, name)
		}
		if _, taken := mcu.ByName(name); taken {
			t.Fatalf("generated name %q collides with a registered board", name)
		}
	}
	for _, taken := range []string{"M4", "m7", "M0+"} {
		if _, err := newBoard(rng, taken); err == nil {
			t.Errorf("newBoard accepted the registered name %q", taken)
		}
	}
}

func TestNewBoardIsSeeded(t *testing.T) {
	a, err1 := newBoard(rand.New(rand.NewSource(3)), "pbseeded")
	b, err2 := newBoard(rand.New(rand.NewSource(3)), "pbseeded")
	c, err3 := newBoard(rand.New(rand.NewSource(4)), "pbseeded")
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if a != b {
		t.Fatal("same seed gave different boards")
	}
	if a.Model == c.Model {
		t.Fatal("different seeds gave the same model")
	}
}

// loadedBoards numbers the boards TestBoardFileLoads registers, so the
// test can repeat (-count) in one process.
var loadedBoards atomic.Int64

func TestBoardFileLoads(t *testing.T) {
	name := "pbfileload" + strconv.FormatInt(loadedBoards.Add(1), 10)
	a, err := newBoard(rand.New(rand.NewSource(1)), name)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/b.json"
	if err := writeBoardFile(path, a); err != nil {
		t.Fatal(err)
	}
	got, err := mcu.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Model != a.Model || got[0].Name != a.Name {
		t.Fatalf("loaded %+v, want %+v", got, a)
	}
}

func TestDigestCheckerCatchesOneByte(t *testing.T) {
	data := []byte(`{"schema": "entobench.characterization", "version": 1}` + "\n")
	want := digest(data)
	if err := checkDigest("x", data, want); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0x01
		if checkDigest("x", mut, want) == nil {
			t.Fatalf("digest check passed with byte %d flipped", i)
		}
		err := checkSame("x", mut, data)
		if err == nil || !strings.Contains(err.Error(), "at byte "+strconv.Itoa(i)+" ") {
			t.Fatalf("checkSame with byte %d flipped: %v", i, err)
		}
	}
	if checkSame("x", data[:len(data)-1], data) == nil {
		t.Fatal("checkSame passed a truncated output")
	}
}

func TestSumSweepSpansLaneIdle(t *testing.T) {
	ms := int64(time.Millisecond)
	got := sumSweepSpans([]obs.Span{
		{Name: obs.SpanSweepStatic, DurNS: 4 * ms, TID: 1},
		{Name: obs.SpanSweepCell, DurNS: 7 * ms, TID: 1},
		{Name: obs.SpanSweepCell, DurNS: 5 * ms, TID: 2},
		{Name: obs.SpanSweep, DurNS: 10 * ms, Args: []obs.Arg{{Key: "workers", Val: "2"}}},
	})
	want := sweepSpans{StaticMS: 4, CellMS: 12, LaneIdleMS: 4, Workers: 2}
	if got != want {
		t.Fatalf("sumSweepSpans = %+v, want %+v", got, want)
	}
}

// The readiness line may arrive split across writes; the address is
// reported once, and later output is discarded.
func TestReadyWatchSplitLine(t *testing.T) {
	w := &readyWatch{ready: make(chan string, 1)}
	for _, chunk := range []string{"entobenchd listen", "ing on http://127.0.0.1:4", "1234\nmore\n"} {
		if _, err := w.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Write([]byte("entobenchd listening on http://x\n")); err != nil {
		t.Fatal(err)
	}
	if got := <-w.ready; got != "127.0.0.1:41234" {
		t.Fatalf("address %q, want 127.0.0.1:41234", got)
	}
	select {
	case extra := <-w.ready:
		t.Fatalf("second address %q reported", extra)
	default:
	}
}

// BENCHMARK.json and perfbench must name the same metrics with the
// same units: per-layer metrics in the traced run, end-to-end metrics
// in every workload's result line.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, traced run prints %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	ops := cliOps{wall: []time.Duration{time.Millisecond}, cpu: []float64{1}, rssKB: []float64{1024}, elapsed: time.Millisecond}
	e := &env{out: io.Discard}
	cls := classStats{lat: []time.Duration{time.Millisecond}, cpu: time.Millisecond, wall: time.Millisecond}
	for what, r := range map[string]result{
		"CLI":        ops.metrics(e, []float64{1}),
		"warm_serve": serveMetrics(e, loadStats{full: cls, small: cls}, []float64{1}, 1024, 0),
	} {
		got := map[string]string{}
		for _, m := range r.Metrics {
			got[m.Name] = m.Unit
		}
		if len(got) != len(spec.EndToEnd) {
			t.Fatalf("%s result line has %d metrics %v, BENCHMARK.json lists %d", what, len(got), got, len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			if got[m.Name] != m.Unit {
				t.Errorf("end_to_end %s/%s: %s result line has unit %q", m.Name, m.Unit, what, got[m.Name])
			}
		}
	}
}

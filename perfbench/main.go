// Command perfbench is the repository's end-to-end benchmark. It drives
// the real entobench and entobenchd binaries as subprocesses through
// four named workloads (cold_sweep, warm_serve, cache_hit_sweep,
// cache_resweep), checks
// every output for correctness, and with -trace 1 runs a separate
// in-process traced pass that splits each workload's time across the
// internal layers. README.md in this directory describes the workloads
// and metrics; run.sh builds everything and invokes this program:
//
//	bash perfbench/run.sh --workload warm_serve --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads maps each workload name to its end-to-end run.
var workloads = map[string]func(*env) (result, error){
	"cold_sweep":      coldSweep,
	"warm_serve":      warmServe,
	"cache_hit_sweep": cacheHitSweep,
	"cache_resweep":   cacheResweep,
}

// env is one benchmark run's context.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	bin      string // directory holding entobench and entobenchd
	tmp      string // fresh per-run scratch directory, removed at exit
	results  string // directory for the results file and Chrome trace
	out      io.Writer
	clients  int     // closed-loop client count for warm_serve (nproc)
	stealPct float64 // host steal share over the timed phase

	checkErrs []error
}

func (e *env) entobench() string  { return filepath.Join(e.bin, "entobench") }
func (e *env) entobenchd() string { return filepath.Join(e.bin, "entobenchd") }

// rng returns a generator for one named input stream of the run, so
// streams are independent of each other and fixed by the seed.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

// fail records a failed output check. A check failure fails the run;
// it is never folded into the latency sample.
func (e *env) fail(err error) {
	if len(e.checkErrs) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	e.checkErrs = append(e.checkErrs, err)
}

func (e *env) logf(format string, a ...any) { fmt.Fprintf(e.out, format+"\n", a...) }

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// result is a run's outcome. Metrics are the gated ones BENCHMARK.json
// lists; Ungated are measured and recorded in the results file but not
// printed in the result line (see README.md for why).
type result struct {
	Attempted, Failed int
	Metrics           []metric
	Ungated           []metric
}

func (r *result) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{name, unit, v})
}

func (r *result) addUngated(name, unit string, v float64) {
	r.Ungated = append(r.Ungated, metric{name, unit, v})
}

func metricMap(ms []metric) map[string]jsonValue {
	m := make(map[string]jsonValue, len(ms))
	for _, x := range ms {
		m[x.Name] = jsonValue{x.Value, x.Unit}
	}
	return m
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

func (r result) json(correct bool) jsonResult {
	return jsonResult{Correct: correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: metricMap(r.Metrics)}
}

// hostFingerprint identifies the machine a run measured.
type hostFingerprint struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func fingerprint() hostFingerprint {
	h := hostFingerprint{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: cold_sweep, warm_serve, cache_hit_sweep or cache_resweep")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end run, tracing off; 1: traced per-layer run")
	bin := fs.String("bin", "", "directory holding the entobench and entobenchd binaries")
	work := fs.String("work", "", "directory for scratch state and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (cold_sweep|warm_serve|cache_hit_sweep|cache_resweep), -bin, -work, -seconds >= 1, -trace 0|1")
		return 2
	}
	for _, b := range []string{"entobench", "entobenchd"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		bin:      *bin,
		results:  filepath.Join(*work, "results"),
		out:      os.Stdout,
		clients:  runtime.NumCPU(),
	}
	tmpRoot := filepath.Join(*work, "tmp")
	err := os.MkdirAll(tmpRoot, 0o755)
	if err == nil {
		err = os.MkdirAll(e.results, 0o755)
	}
	var tmp string
	if err == nil {
		tmp, err = os.MkdirTemp(tmpRoot, *workload+"-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e.tmp = tmp
	// Remove this run's state and commit the deletes, so the next run
	// does not pay for them.
	defer func() {
		_ = os.RemoveAll(tmp)
		syncFS()
	}()

	host := fingerprint()
	e.logf("perfbench %s seed=%d seconds=%d trace=%d | go=%s cpu=%q nproc=%d gomaxprocs=%d",
		e.workload, e.seed, *seconds, *trace, host.GoVersion, host.CPUModel, host.NumCPU, host.GOMAXPROCS)

	var res result
	name := fmt.Sprintf("%s-seed%d", e.workload, e.seed)
	if *trace == 1 {
		name += "-traced"
		res, err = traced(e, filepath.Join(e.results, name+".trace.json"))
	} else {
		res, err = drive(e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	correct := len(e.checkErrs) == 0
	out := res.json(correct)
	if werr := writeResultsFile(filepath.Join(e.results, name+".json"), e, host, *trace, out, metricMap(res.Ungated)); werr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", werr)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// writeResultsFile records the run with its seed and host fingerprint.
func writeResultsFile(path string, e *env, host hostFingerprint, trace int, out jsonResult, ungated map[string]jsonValue) error {
	var checks []string
	for _, err := range e.checkErrs {
		checks = append(checks, err.Error())
	}
	b, err := json.MarshalIndent(struct {
		Workload  string               `json:"workload"`
		Seed      int64                `json:"seed"`
		Seconds   float64              `json:"seconds"`
		Trace     int                  `json:"trace"`
		Host      hostFingerprint      `json:"host"`
		StealPct  float64              `json:"host_steal_pct"`
		Result    jsonResult           `json:"result"`
		Ungated   map[string]jsonValue `json:"ungated_metrics,omitempty"`
		CheckErrs []string             `json:"check_failures,omitempty"`
	}{e.workload, e.seed, e.seconds.Seconds(), trace, host, e.stealPct, out, ungated, checks}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

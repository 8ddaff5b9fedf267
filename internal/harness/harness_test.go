package harness_test

import (
	"errors"
	"testing"

	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/scalar"
)

// vvadd is the artifact appendix's example kernel: vector-vector add.
type vvadd struct {
	n       int
	a, b, c []scalar.F32
	solved  bool
	failSet bool
}

func (v *vvadd) Name() string    { return "vvadd" }
func (v *vvadd) Dataset() string { return "synthetic" }

func (v *vvadd) Setup() error {
	if v.failSet {
		return errors.New("forced setup failure")
	}
	v.a = make([]scalar.F32, v.n)
	v.b = make([]scalar.F32, v.n)
	v.c = make([]scalar.F32, v.n)
	for i := 0; i < v.n; i++ {
		v.a[i] = scalar.F32(i)
		v.b[i] = scalar.F32(2 * i)
	}
	return nil
}

func (v *vvadd) Solve() {
	for i := 0; i < v.n; i++ {
		v.c[i] = v.a[i].Add(v.b[i])
	}
	profile.AddM(uint64(3 * v.n))
	v.solved = true
}

func (v *vvadd) Validate() error {
	if !v.solved {
		return errors.New("not solved")
	}
	for i := 0; i < v.n; i++ {
		if v.c[i] != scalar.F32(3*i) {
			return errors.New("wrong sum")
		}
	}
	return nil
}

func TestRunEndToEnd(t *testing.T) {
	p := &vvadd{n: 256}
	res, err := harness.Run(p, mcu.M4, mcu.PrecF32, harness.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatalf("validation failed: %v", res.ValidErr)
	}
	if res.Counts.F != 256 {
		t.Errorf("F ops = %d, want 256", res.Counts.F)
	}
	if res.Counts.M < 256 {
		t.Errorf("M ops = %d, want >= 256", res.Counts.M)
	}
	if res.Model.LatencyS <= 0 || res.Model.EnergyJ <= 0 {
		t.Error("model produced non-positive metrics")
	}
}

// The trace-analysis pipeline must agree with the analytic model — the
// self-consistency ablation from DESIGN.md.
func TestTracePipelineMatchesModel(t *testing.T) {
	p := &vvadd{n: 512}
	for _, arch := range mcu.TableIVSet() {
		for _, cache := range []bool{true, false} {
			cfg := harness.DefaultConfig()
			cfg.CacheOn = cache
			res, err := harness.Run(p, arch, mcu.PrecF32, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if e := harness.RelError(res.Measured.LatencyS, res.Model.LatencyS); e > 0.05 {
				t.Errorf("%s cache=%v: latency rel err %.3f", arch.Name, cache, e)
			}
			if e := harness.RelError(res.Measured.EnergyJ, res.Model.EnergyJ); e > 0.05 {
				t.Errorf("%s cache=%v: energy rel err %.3f", arch.Name, cache, e)
			}
			if e := harness.RelError(res.Measured.PeakPowerW, res.Model.PeakPowerW); e > 0.05 {
				t.Errorf("%s cache=%v: peak rel err %.3f", arch.Name, cache, e)
			}
		}
	}
}

func TestSetupFailurePropagates(t *testing.T) {
	p := &vvadd{n: 16, failSet: true}
	if _, err := harness.Run(p, mcu.M4, mcu.PrecF32, harness.DefaultConfig()); err == nil {
		t.Fatal("expected setup error")
	}
}

func TestAnalyzeRejectsEmptyEvents(t *testing.T) {
	tr := harness.Trace{SampleHz: harness.SampleHz, Power: make([]float64, 100)}
	if _, err := harness.Analyze(tr, nil, 1); err == nil {
		t.Fatal("expected error on missing ROI")
	}
}

func TestAnalyzeRejectsSubSampleROI(t *testing.T) {
	tr := harness.Trace{SampleHz: harness.SampleHz, Power: make([]float64, 100)}
	ev := []harness.GPIOEvent{
		{Pin: harness.PinLatency, Rising: true, TimeS: 1e-4},
		{Pin: harness.PinLatency, Rising: false, TimeS: 1e-4 + 1e-6},
	}
	if _, err := harness.Analyze(tr, ev, 1); err == nil {
		t.Fatal("expected error on sub-sample ROI")
	}
}

func TestAutoRepsCoverTinyKernels(t *testing.T) {
	// A ~2 µs kernel needs thousands of reps to fill a 2 ms ROI; the
	// analyzer must still recover per-rep latency accurately.
	p := &vvadd{n: 64}
	cfg := harness.DefaultConfig()
	res, err := harness.Run(p, mcu.M4, mcu.PrecF32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured.Reps < 100 {
		t.Errorf("auto reps = %d; tiny kernel should get many reps", res.Measured.Reps)
	}
	if e := harness.RelError(res.Measured.LatencyS, res.Model.LatencyS); e > 0.05 {
		t.Errorf("per-rep latency rel err %.3f", e)
	}
}

func TestFixedRepsHonored(t *testing.T) {
	p := &vvadd{n: 64}
	cfg := harness.DefaultConfig()
	cfg.Reps = 500
	res, err := harness.Run(p, mcu.M33, mcu.PrecF32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured.Reps != 500 {
		t.Errorf("reps = %d, want 500", res.Measured.Reps)
	}
}

func TestTraceEnergyPreservingBursts(t *testing.T) {
	est := mcu.M7.Estimate(profile.Counts{F: 5000, I: 3000, M: 4000, B: 1000}, mcu.PrecF32, true)
	tr, ev := harness.SynthesizeTrace(est, mcu.M7, true, 100, 1)
	m, err := harness.Analyze(tr, ev, 100)
	if err != nil {
		t.Fatal(err)
	}
	if e := harness.RelError(m.AvgPowerW, est.AvgPowerW); e > 0.05 {
		t.Errorf("trace mean power rel err %.3f", e)
	}
	if m.PeakPowerW < est.AvgPowerW {
		t.Error("peak below average")
	}
}

// solveCounter wraps vvadd to count host-side Solve and Validate
// invocations.
type solveCounter struct {
	vvadd
	solves, validates int
}

func (s *solveCounter) Solve() { s.solves++; s.vvadd.Solve() }

func (s *solveCounter) Validate() error { s.validates++; return s.vvadd.Validate() }

// A prepare executes the kernel exactly Warmup + 1 times (the profiled
// rep) and validates once, never the modeled rep count: the trace
// synthesizer scales the one profiled invocation to the full ROI.
func TestPrepareRunsKernelOnce(t *testing.T) {
	withReps := harness.DefaultConfig()
	withReps.Reps = 1000
	for name, cfg := range map[string]harness.Config{
		"default":    withReps,
		"hand-built": {Reps: 1000, Warmup: 1, CacheOn: true},
	} {
		p := &solveCounter{vvadd: vvadd{n: 16}}
		res, err := harness.Run(p, mcu.M4, mcu.PrecF32, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Measured.Reps != 1000 {
			t.Errorf("%s: measured reps = %d, want 1000", name, res.Measured.Reps)
		}
		if want := cfg.Warmup + 1; p.solves != want {
			t.Errorf("%s: host solves = %d, want %d", name, p.solves, want)
		}
		if p.validates != 1 {
			t.Errorf("%s: validates = %d, want 1", name, p.validates)
		}
	}
}

// autoReps runs a tiny vvadd and returns the rep count the MinROITimeS
// auto-scaler settled on.
func autoReps(t *testing.T) int {
	t.Helper()
	cfg := harness.DefaultConfig()
	cfg.Reps = 0           // auto
	cfg.MinROITimeS = 0.05 // wide ROI window: uncapped demand far exceeds the ceiling
	res, err := harness.Run(&vvadd{n: 16}, mcu.M4, mcu.PrecF32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Measured.Reps
}

// A 16-element vvadd finishes in well under a microsecond of modeled
// time, so filling the 2 ms ROI window would demand far more than the
// ceiling — the auto-scaler must clamp to DefaultMaxAutoReps.
func TestMaxAutoRepsDefaultCap(t *testing.T) {
	if got := autoReps(t); got != harness.DefaultMaxAutoReps {
		t.Errorf("auto reps = %d, want default cap %d", got, harness.DefaultMaxAutoReps)
	}
}

// Explicit rep counts are a user decision; the auto-rep ceiling must not
// touch them.
func TestMaxAutoRepsIgnoredForExplicitReps(t *testing.T) {
	cfg := harness.DefaultConfig()
	cfg.Reps = 2 * harness.DefaultMaxAutoReps
	res, err := harness.Run(&vvadd{n: 16}, mcu.M4, mcu.PrecF32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured.Reps != cfg.Reps {
		t.Errorf("reps = %d, want explicit %d", res.Measured.Reps, cfg.Reps)
	}
}

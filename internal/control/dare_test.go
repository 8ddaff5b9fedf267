package control_test

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/mcu"
)

// sameBits reports whether two matrices hold bit-identical entries.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// The memoized K and P∞ are bit-identical to an uncached solve, on the
// first (filling) call and on a later hit.
func TestDAREMemoBitIdentical(t *testing.T) {
	control.ResetDAREMemo()
	a, b, q, r := control.FlyModel(dt)
	wantK, wantP, err := control.SolveDAREUncached(a, b, q, r)
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 2; call++ {
		k, p, err := control.DARE(a, b, q, r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(k, wantK) || !sameBits(p, wantP) {
			t.Fatalf("call %d: memoized DARE differs from an uncached solve", call)
		}
	}
	lqr, err := control.NewLQR(F(0), a, b, q, r)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(lqr.K.Floats(), wantK) {
		t.Fatal("NewLQR gain differs from an uncached solve")
	}
}

// A caller mutating the returned slices must not reach the memo.
func TestDAREMemoReturnsCopies(t *testing.T) {
	control.ResetDAREMemo()
	a, b, q, r := control.FlyModel(dt)
	wantK, wantP, err := control.SolveDAREUncached(a, b, q, r)
	if err != nil {
		t.Fatal(err)
	}
	k, p, err := control.DARE(a, b, q, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range [][][]float64{k, p} {
		for _, row := range m {
			for j := range row {
				row[j] = math.NaN()
			}
		}
	}
	k2, p2, err := control.DARE(a, b, q, r)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(k2, wantK) || !sameBits(p2, wantP) {
		t.Fatal("mutating a returned K/P leaked into the memo")
	}
}

// Fast and reference mat modes memoize separately: each mode solves
// once, then hits, and both agree bit for bit.
func TestDAREMemoSeparatesModes(t *testing.T) {
	control.ResetDAREMemo()
	a, b, q, r := control.FlyModel(dt)
	prev := mat.SetReferenceKernels(false)
	defer mat.SetReferenceKernels(prev)

	n0 := control.DARESolves()
	fastK, fastP, _ := control.DARE(a, b, q, r)
	control.DARE(a, b, q, r)
	if got := control.DARESolves() - n0; got != 1 {
		t.Fatalf("fast mode: %d solves, want 1", got)
	}

	mat.SetReferenceKernels(true)
	refK, refP, _ := control.DARE(a, b, q, r)
	control.DARE(a, b, q, r)
	mat.SetReferenceKernels(false)
	if got := control.DARESolves() - n0; got != 2 {
		t.Fatalf("after reference mode: %d solves, want 2 (one per mode)", got)
	}
	control.DARE(a, b, q, r)
	if got := control.DARESolves() - n0; got != 2 {
		t.Fatalf("fast mode re-solved after a reference run: %d solves", got)
	}
	if !sameBits(fastK, refK) || !sameBits(fastP, refP) {
		t.Fatal("fast and reference DARE solutions differ")
	}
}

// A full default sweep (every kernel on the Table IV boards) solves the
// fly-model DARE exactly once per mat mode, although fly-lqr and
// bee-mpc each construct it for the static proxy and the prepare.
func TestDARESolvedOncePerModeAcrossSweep(t *testing.T) {
	prev := mat.SetReferenceKernels(false)
	defer mat.SetReferenceKernels(prev)
	for _, ref := range []bool{false, true} {
		mat.SetReferenceKernels(ref)
		control.ResetDAREMemo()
		n0 := control.DARESolves()
		if _, err := core.CharacterizeSuiteOpts(core.Suite(), mcu.TableIVSet(), core.SweepOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		if got := control.DARESolves() - n0; got != 1 {
			t.Fatalf("reference=%v: %d DARE solves across a default sweep, want 1", ref, got)
		}
	}
}

// A solve that panics (ragged input) panics for every caller of that
// key, not just the first: the memo never hands out an empty solution.
func TestDAREMemoReraisesPanic(t *testing.T) {
	control.ResetDAREMemo()
	a, b, q, r := control.FlyModel(dt)
	a = append(a[:3:3], []float64{0, 0, dt})
	for call := 0; call < 2; call++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("call %d: ragged DARE input did not panic", call)
				}
			}()
			control.DARE(a, b, q, r)
		}()
	}
}

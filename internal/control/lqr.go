// Package control implements the control kernels of the suite: the
// sparse 4×4 fly-lqr regulator, its TinyMPC successor fly-tiny-mpc, the
// OSQP-style ADMM MPC bee-mpc, the SE(3) geometric tracking controller
// bee-geom, and the sliding-mode adaptive controller bee-smac.
// Benchmarks cover high-level reference computation only; actuator
// mapping (piezo drive waveforms) is out of scope, as in the paper.
package control

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mat"
	"repro/internal/scalar"
)

// LQR is an infinite-horizon discrete-time linear quadratic regulator:
// the online kernel is just u = -K·(x - xref), with K solved offline
// from the DARE at construction. The paper's fly-lqr observation — that
// the sparsity of the 4×4 gain cannot be exploited by a generic dense
// implementation — holds here by construction: Update performs the full
// dense m×n multiply.
type LQR[T scalar.Real[T]] struct {
	K mat.Mat[T] // m×n feedback gain
	A mat.Mat[T] // n×n dynamics (kept for simulation/benchmarks)
	B mat.Mat[T] // n×m input map
}

// solveDARE iterates the discrete algebraic Riccati equation to a fixed
// point in float64 and returns the gain K and cost-to-go P∞. It always
// solves; callers go through dare, which memoizes.
func solveDARE(a, b, q, r [][]float64) (k, p mat.Mat[scalar.F64], err error) {
	dareSolves.Add(1)
	type F = scalar.F64
	fa := mat.FromFloats(F(0), a)
	fb := mat.FromFloats(F(0), b)
	fq := mat.FromFloats(F(0), q)
	fr := mat.FromFloats(F(0), r)

	p = fq.Clone()
	for it := 0; it < 2000; it++ {
		// K = (R + Bᵀ·P·B)⁻¹·Bᵀ·P·A
		btp := fb.Transpose().Mul(p)
		s := btp.Mul(fb).Add(fr)
		sinv, invErr := mat.Inverse(s)
		if invErr != nil {
			return k, p, errors.New("control: DARE iteration hit singular R + BᵀPB")
		}
		k = sinv.Mul(btp).Mul(fa)
		// P' = Q + Aᵀ·P·(A - B·K)
		pNew := fq.Add(fa.Transpose().Mul(p).Mul(fa.Sub(fb.Mul(k))))
		diff := pNew.Sub(p).MaxAbs().Float()
		p = pNew
		if diff < 1e-12 {
			break
		}
	}
	return k, p, nil
}

// The DARE is solved offline, in Setup, from model matrices that are
// the same for every construction in practice (fly-lqr and bee-mpc both
// build on FlyModel(ctrlDt), for the static proxy and the prepare
// alike). dare memoizes solutions per process, like the dataset
// masters: a sync.Map keyed by the exact float64 bits of (a, b, q, r)
// plus the mat reference-kernel mode, so a reference-mode run still
// executes the hooked DARE once and the fast≡reference oracle keeps
// exercising it. Each key's entry solves under a sync.Once, so
// concurrent first callers (two sweep lanes constructing fly-lqr and
// bee-mpc) share one solve. Callers get fresh copies of K and P, made
// without mat's profiler hooks.

// dareMemo maps dareKey to *dareEntry.
var dareMemo sync.Map

// dareSolves counts real (uncached) DARE solves, so tests can prove
// the memo.
var dareSolves atomic.Int64

type dareKey struct {
	ref  bool   // mat.ReferenceKernels() at solve time
	bits string // shapes and float64 bits of a, b, q, r
}

type dareEntry struct {
	once     sync.Once
	k, p     [][]float64
	err      error
	panicVal any // a recovered solve panic, re-raised to every caller
}

// newDAREKey encodes the exact inputs of one solve: every matrix's row
// count, each row's length, and each entry's float64 bits.
func newDAREKey(ms ...[][]float64) dareKey {
	var buf []byte
	for _, m := range ms {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m)))
		for _, row := range m {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(row)))
			for _, v := range row {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	return dareKey{ref: mat.ReferenceKernels(), bits: string(buf)}
}

// dare returns the memoized DARE gain K and cost-to-go P∞ for (a, b, q,
// r) as fresh row slices the caller may keep or mutate.
func dare(a, b, q, r [][]float64) (k, p [][]float64, err error) {
	key := newDAREKey(a, b, q, r)
	v, ok := dareMemo.Load(key)
	if !ok {
		v, _ = dareMemo.LoadOrStore(key, new(dareEntry))
	}
	e := v.(*dareEntry)
	e.once.Do(func() {
		defer func() { e.panicVal = recover() }()
		km, pm, err := solveDARE(a, b, q, r)
		if err != nil {
			e.err = err
			return
		}
		e.k, e.p = km.Floats(), pm.Floats()
	})
	if e.panicVal != nil {
		panic(e.panicVal)
	}
	if e.err != nil {
		return nil, nil, e.err
	}
	return copyRows(e.k), copyRows(e.p), nil
}

func copyRows(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// NewLQR solves the discrete algebraic Riccati equation by fixed-point
// iteration (offline, float64) and returns the regulator with gains in
// like's scalar format.
func NewLQR[T scalar.Real[T]](like T, a, b, q, r [][]float64) (*LQR[T], error) {
	k, _, err := dare(a, b, q, r)
	if err != nil {
		return nil, err
	}
	out := &LQR[T]{
		K: mat.FromFloats(like, k),
		A: mat.FromFloats(like, a),
		B: mat.FromFloats(like, b),
	}
	return out, nil
}

// Update computes the control u = -K·(x - xref) — the measured kernel.
func (l *LQR[T]) Update(x, xref mat.Vec[T]) mat.Vec[T] {
	return l.K.MulVec(x.Sub(xref)).Neg()
}

// FlyLQRFLOPs is the static FLOP count claimed for the fly-lqr update in
// the supplemental material the paper re-examines (Table VIII).
const FlyLQRFLOPs = 30

// TinyMPCFLOPs is the per-solve FLOP estimate for the 10-step-horizon
// TinyMPC configuration in the same comparison.
const TinyMPCFLOPs = 1000

// FlyModel returns the linearized planar flapping-wing model of Dhingra
// et al. [19]: state x = [θ (pitch), θ̇, v (lateral velocity), p
// (lateral position)], inputs u = [pitch moment, thrust tilt],
// discretized at dt.
func FlyModel(dt float64) (a, b, q, r [][]float64) {
	g := 9.80665
	// Continuous dynamics: θ̇ = ω; ω̇ = u1 (moment); v̇ = g·θ - c·v + u2;
	// ṗ = v, with lateral drag c.
	c := 1.5
	a = [][]float64{
		{1, dt, 0, 0},
		{0, 1, 0, 0},
		{g * dt, 0, 1 - c*dt, 0},
		{0, 0, dt, 1},
	}
	b = [][]float64{
		{0, 0},
		{dt, 0},
		{0, dt},
		{0, 0},
	}
	q = [][]float64{
		{10, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 2, 0},
		{0, 0, 0, 5},
	}
	r = [][]float64{
		{1, 0},
		{0, 1},
	}
	return a, b, q, r
}

package control

// DARE is the memoized solve the controllers construct through.
func DARE(a, b, q, r [][]float64) (k, p [][]float64, err error) { return dare(a, b, q, r) }

// SolveDAREUncached runs the solve itself, bypassing the memo.
func SolveDAREUncached(a, b, q, r [][]float64) (k, p [][]float64, err error) {
	km, pm, err := solveDARE(a, b, q, r)
	if err != nil {
		return nil, nil, err
	}
	return km.Floats(), pm.Floats(), nil
}

// DARESolves reports how many real (uncached) DARE solves this process
// has run.
func DARESolves() int64 { return dareSolves.Load() }

// ResetDAREMemo forgets every memoized solution.
func ResetDAREMemo() {
	dareMemo.Range(func(k, _ any) bool {
		dareMemo.Delete(k)
		return true
	})
}

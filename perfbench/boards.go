package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/mcu"
)

// newBoard returns a never-seen board for the cache_resweep workload: a
// copy of a reference Table IV core whose cost and power model is
// perturbed by up to ±15% per parameter, named so it cannot collide
// with any registered board. The result always passes mcu validation.
func newBoard(rng *rand.Rand, name string) (mcu.Arch, error) {
	if _, taken := mcu.ByName(name); taken {
		return mcu.Arch{}, fmt.Errorf("board name %q is already registered", name)
	}
	refs := mcu.TableIVSet()
	a := refs[rng.Intn(len(refs))]
	a.Name = name
	a.Board = "perturbed " + a.Board
	a.Source = ""
	m := &a.Model
	scale := func(v *float64) { *v *= 0.85 + 0.3*rng.Float64() }
	for _, v := range []*float64{
		&m.CPIF32, &m.CPIF64, &m.CPII, &m.CPIB, &m.MemOn, &m.MemOff,
		&m.BranchOffPenalty, &m.IPC, &m.SoftF32, &m.SoftF64,
		&m.BasePowerOnW, &m.BasePowerOffW,
		&m.DynFOnW, &m.DynMOnW, &m.DynFOffW, &m.DynMOffW,
	} {
		scale(v)
	}
	m.MemOff = max(m.MemOff, m.MemOn)
	m.SoftF32 = max(m.SoftF32, 1)
	m.SoftF64 = max(m.SoftF64, 1)
	for _, v := range []*float64{&m.StaticF, &m.StaticI, &m.StaticM, &m.StaticB} {
		if *v != 0 {
			*v = min(max(*v*(0.97+0.06*rng.Float64()), 0.5), 1.5)
		}
	}
	if err := a.Validate(); err != nil {
		return mcu.Arch{}, fmt.Errorf("generated board %q: %w", name, err)
	}
	return a, nil
}

// writeBoardFile writes a one-board file in the entobench.boards schema
// that `entobench sweep -boards` loads.
func writeBoardFile(path string, a mcu.Arch) error {
	b, err := json.MarshalIndent(mcu.BoardFile{
		Schema:  mcu.BoardSchema,
		Version: mcu.BoardVersion,
		Boards:  []mcu.Arch{a},
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// boardWriter generates the seeded never-seen boards of one input
// stream and writes each to its own board file in dir.
type boardWriter struct {
	rng    *rand.Rand
	dir    string
	prefix string // distinguishes the streams of one run
	n      int
}

// next returns the next board and the path of its board file.
func (w *boardWriter) next() (mcu.Arch, string, error) {
	name := fmt.Sprintf("%s-%d", w.prefix, w.n)
	w.n++
	a, err := newBoard(w.rng, name)
	if err != nil {
		return a, "", err
	}
	file := filepath.Join(w.dir, name+".json")
	return a, file, writeBoardFile(file, a)
}

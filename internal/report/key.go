package report

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
)

// Content digests, at two granularities. A characterization is fully
// determined by the kernel set, the board cost models, and the harness
// configuration (which carries the cache flag for single runs; the
// sweep itself measures both cache settings per cell). SweepKey digests
// exactly those inputs for a whole query, so two queries share an
// in-memory cache entry if and only if they would produce
// byte-identical v1 JSON exports. CellKey and StaticCellKey apply the
// same digest scheme to one cell — one (kernel, board, cache setting)
// measurement, or one kernel's static-proxy run — and key the on-disk
// persistent store (internal/cellstore), so overlapping sweeps share
// every cell they have in common.
//
// Kernel identity is by name plus descriptor metadata: the suite
// registry rejects duplicate names, so within one process a name plus
// its (stage, category, dataset, precision, FLOPs, SRAM gate) tuple
// pins one Factory. Across processes sharing a -cachedir the same
// holds by convention — a user who changes a registered kernel's
// implementation without renaming it must point at a fresh cache
// directory (or delete the old one), exactly as with any
// content-by-descriptor build cache. Board identity is the serialized
// Arch — name, clock, FPU, SRAM, cache, every ModelParams field, and
// the provenance Source (Source appears in the export's boards block,
// so two otherwise-identical boards with different provenance must not
// share bytes) — all but IdleW, which never reaches the export.

// cellSchemaVersion salts the per-cell keys with the payload schema
// generation. Bumping it (alongside cellstore.Version) orphans every
// old on-disk record into a clean miss when the cached result's
// meaning changes in a way the inputs do not capture.
const cellSchemaVersion = 1

// The identity lines below are the digest inputs. Their bytes must
// equal fmt's rendering of the same fields — kernel fields by
// %s/%d/%v, the board clock by %g, the board model and harness config
// by %+v struct syntax — because that is what every existing key, and
// every warm -cachedir, was minted from. The encoders write those bytes
// with strconv into one buffer, which keeps key derivation (once per
// served request) off fmt's reflection path. key_test.go pins the keys,
// checks the encoders against fmt, and fails when an identity struct
// gains a field no encoder writes.

// appendKernel appends one kernel's identity line.
func appendKernel(b []byte, s core.Spec) []byte {
	b = append(b, "kernel|"...)
	b = append(b, s.Name...)
	b = append(b, '|')
	b = append(b, s.Stage...)
	b = append(b, '|')
	b = append(b, s.Category...)
	b = append(b, '|')
	b = append(b, s.Dataset...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(s.Prec), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(s.FLOPs), 10)
	b = append(b, '|')
	b = strconv.AppendBool(b, s.M7Only)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(s.MinSRAMKB), 10)
	return append(b, '\n')
}

// appendBoard appends one board's identity line. IdleW is deliberately
// absent: it shapes only the synthesized trace outside the ROI and
// never reaches a measurement or the export.
func appendBoard(b []byte, a mcu.Arch) []byte {
	b = append(b, "board|"...)
	b = append(b, a.Name...)
	b = append(b, '|')
	b = append(b, a.Board...)
	b = append(b, '|')
	b = append(b, a.ISA...)
	b = append(b, '|')
	b = appendFloat(b, a.ClockHz)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(a.FPU), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(a.SRAMKB), 10)
	b = append(b, '|')
	b = strconv.AppendBool(b, a.HasCache)
	b = append(b, '|')
	b = append(b, a.Source...)
	b = append(b, '|')
	m := a.Model
	b = appendField(b, "{CPIF32:", m.CPIF32)
	b = appendField(b, " CPIF64:", m.CPIF64)
	b = appendField(b, " CPII:", m.CPII)
	b = appendField(b, " CPIB:", m.CPIB)
	b = appendField(b, " MemOn:", m.MemOn)
	b = appendField(b, " MemOff:", m.MemOff)
	b = appendField(b, " BranchOffPenalty:", m.BranchOffPenalty)
	b = appendField(b, " IPC:", m.IPC)
	b = appendField(b, " SoftF32:", m.SoftF32)
	b = appendField(b, " SoftF64:", m.SoftF64)
	b = appendField(b, " BasePowerOnW:", m.BasePowerOnW)
	b = appendField(b, " BasePowerOffW:", m.BasePowerOffW)
	b = appendField(b, " DynFOnW:", m.DynFOnW)
	b = appendField(b, " DynMOnW:", m.DynMOnW)
	b = appendField(b, " DynFOffW:", m.DynFOffW)
	b = appendField(b, " DynMOffW:", m.DynMOffW)
	b = appendField(b, " StaticF:", m.StaticF)
	b = appendField(b, " StaticI:", m.StaticI)
	b = appendField(b, " StaticM:", m.StaticM)
	b = appendField(b, " StaticB:", m.StaticB)
	return append(b, "}\n"...)
}

// appendHarness appends the harness configuration line. Verbosity,
// MaxHostReps and MaxAutoReps were Config fields when every existing
// key was minted; they are written as the fixed text every default
// Config rendered, in their old positions, so no key moves. The
// literals are sound because none of the three ever reached an output:
// nothing read Verbosity, the host validation reps MaxHostReps bounded
// changed no measured byte, and MaxAutoReps 0 meant the
// DefaultMaxAutoReps cap that autoReps now always applies.
func appendHarness(b []byte, cfg harness.Config) []byte {
	b = append(b, "harness|{Reps:"...)
	b = strconv.AppendInt(b, int64(cfg.Reps), 10)
	b = append(b, " Warmup:"...)
	b = strconv.AppendInt(b, int64(cfg.Warmup), 10)
	b = append(b, " CacheOn:"...)
	b = strconv.AppendBool(b, cfg.CacheOn)
	b = append(b, " Verbosity:0"...)
	b = appendField(b, " MinROITimeS:", cfg.MinROITimeS)
	return append(b, " MaxHostReps:3 MaxAutoReps:0}\n"...)
}

// appendBackend appends the measurement-backend salt line — only when
// there is one. The classic simulated path contributes nothing, so
// every key minted before the backend seam existed (and every warm
// cache built from them) stays byte-identical.
func appendBackend(b []byte, backend string) []byte {
	if backend == "" {
		return b
	}
	b = append(b, "backend|"...)
	b = append(b, backend...)
	return append(b, '\n')
}

// appendField appends a struct-syntax label and its float value.
func appendField(b []byte, label string, v float64) []byte {
	return appendFloat(append(b, label...), v)
}

// appendFloat renders v as fmt's %g and %v do: the shortest
// round-tripping 'g' form, with "+Inf", "-Inf" and "NaN" spelled as
// strconv spells them.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// digestKey returns prefix ("sweep-" or "cell-") plus the hex SHA-256
// of the identity lines.
func digestKey(prefix string, lines []byte) string {
	sum := sha256.Sum256(lines)
	var out [len("sweep-") + 2*sha256.Size]byte
	n := copy(out[:], prefix)
	n += hex.Encode(out[n:], sum[:])
	return string(out[:n])
}

// keyScratch sizes the on-stack line buffer: a typical query's lines
// fit, so most keys cost one allocation (the returned string).
const keyScratch = 4096

// SweepKey returns the cache key of a characterization query:
// "sweep-" plus the hex SHA-256 of the query's content digest. backend
// is the measurement backend's salt (harness.BackendSalt) — empty for
// classic sweeps.
func SweepKey(specs []core.Spec, archs []mcu.Arch, cfg harness.Config, backend string) string {
	var scratch [keyScratch]byte
	b := appendBackend(scratch[:0], backend)
	b = appendHarness(b, cfg)
	for _, s := range specs {
		b = appendKernel(b, s)
	}
	for _, a := range archs {
		b = appendBoard(b, a)
	}
	return digestKey("sweep-", b)
}

// CellKey returns the persistent-store key of one (kernel, board,
// cache setting) measurement cell: "cell-" plus the hex SHA-256 of the
// cell's content digest. The digest covers the kernel descriptor, the
// full board model, and the per-cell harness configuration (the sweep
// default with CacheOn set to the cell's setting), plus the payload
// schema version — the same identity the sweep-level key uses, applied
// to one cell. backend is the measurement backend's salt
// (harness.BackendSalt): empty for simulator cells, which therefore
// keep their pre-seam keys; non-empty for externally measured cells,
// so modeled and measured results never collide in the store.
func CellKey(spec core.Spec, arch mcu.Arch, cacheOn bool, backend string) string {
	cfg := harness.DefaultConfig()
	cfg.CacheOn = cacheOn
	var scratch [keyScratch]byte
	b := appendSchema(scratch[:0])
	b = appendBackend(b, backend)
	b = appendHarness(b, cfg)
	b = appendKernel(b, spec)
	b = appendBoard(b, arch)
	return digestKey("cell-", b)
}

// StaticCellKey returns the persistent-store key of one kernel's
// static-proxy run. The static job is board-independent (it profiles
// the reduced-input solve and models flash from the counts), so the
// digest covers only the kernel descriptor and the schema version.
func StaticCellKey(spec core.Spec) string {
	var scratch [keyScratch]byte
	b := append(appendSchema(scratch[:0]), "static\n"...)
	b = appendKernel(b, spec)
	return digestKey("cell-", b)
}

// appendSchema appends the per-cell schema-version line.
func appendSchema(b []byte) []byte {
	b = append(b, "cellschema|"...)
	b = strconv.AppendInt(b, cellSchemaVersion, 10)
	return append(b, '\n')
}

// defaultSweepKey keys the canonical full-suite Table IV sweep — the
// query ento.Sweep(nil, ...) serves and the entobenchd default.
func defaultSweepKey() string {
	return SweepKey(core.Suite(), mcu.TableIVSet(), harness.DefaultConfig(), "")
}

package report_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/report"
)

// Pinned key values. Every key names an in-memory cache entry or an
// on-disk cellstore record, so a change to any of these strings orphans
// every existing -cachedir. They may only change together with a
// deliberate cellSchemaVersion bump.
const (
	goldenDefaultSweepKey = "sweep-b2f433fed8bc673f330736ac71910e4bca0bedf53c12aeddc69cc62b904b07c4"
	goldenSmallSweepKey   = "sweep-2b00bc8cd2ee55de83b80968cc2f817a6894166f94053b498e39fc28ff74d6c9"
	goldenCellKeyOn       = "cell-6b14a1f2ef8f47f13cfb4519ef121f2071ab016951625ca31788d859fac59a0e"
	goldenCellKeyOff      = "cell-16de6b5db69a23a7bdb9ea6be9337d9f605e145102f741efe9bdfddec3f30aa7"
	goldenStaticCellKey   = "cell-7175ac24513626ba9a36c538a7563ccb6152fc4736a96c8f4f4ac2558c18bd1a"
)

func TestKeysPinned(t *testing.T) {
	sp, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick not registered")
	}
	cfg := harness.DefaultConfig()
	for _, c := range []struct{ name, got, want string }{
		{"default SweepKey", report.SweepKey(core.Suite(), mcu.TableIVSet(), cfg, ""), goldenDefaultSweepKey},
		{"madgwick×M4 SweepKey", report.SweepKey([]core.Spec{sp}, []mcu.Arch{mcu.M4}, cfg, ""), goldenSmallSweepKey},
		{"CellKey cache on", report.CellKey(sp, mcu.M4, true, ""), goldenCellKeyOn},
		{"CellKey cache off", report.CellKey(sp, mcu.M4, false, ""), goldenCellKeyOff},
		{"StaticCellKey", report.StaticCellKey(sp), goldenStaticCellKey},
		{"Query.Key", report.NewQuery(core.Suite(), mcu.TableIVSet(), nil).Key(), goldenDefaultSweepKey},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// The fmt rendering the key encoders reproduce byte for byte.
func fmtKernel(s core.Spec) string {
	return fmt.Sprintf("kernel|%s|%s|%s|%s|%d|%d|%v|%d\n",
		s.Name, s.Stage, s.Category, s.Dataset, s.Prec, s.FLOPs, s.M7Only, s.MinSRAMKB)
}

func fmtBoard(a mcu.Arch) string {
	return fmt.Sprintf("board|%s|%s|%s|%g|%d|%d|%v|%s|%+v\n",
		a.Name, a.Board, a.ISA, a.ClockHz, a.FPU, a.SRAMKB, a.HasCache, a.Source, a.Model)
}

// fmtHarness writes Verbosity, MaxHostReps and MaxAutoReps as the fixed
// text every key was minted with when they were still Config fields.
func fmtHarness(cfg harness.Config) string {
	return fmt.Sprintf("harness|{Reps:%d Warmup:%d CacheOn:%v Verbosity:0 MinROITimeS:%v MaxHostReps:3 MaxAutoReps:0}\n",
		cfg.Reps, cfg.Warmup, cfg.CacheOn, cfg.MinROITimeS)
}

func fmtBackend(backend string) string {
	if backend == "" {
		return ""
	}
	return fmt.Sprintf("backend|%s\n", backend)
}

func fmtDigest(prefix string, lines ...string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return prefix + hex.EncodeToString(h.Sum(nil))
}

func fmtSweepKey(specs []core.Spec, archs []mcu.Arch, cfg harness.Config, backend string) string {
	lines := []string{fmtBackend(backend), fmtHarness(cfg)}
	for _, s := range specs {
		lines = append(lines, fmtKernel(s))
	}
	for _, a := range archs {
		lines = append(lines, fmtBoard(a))
	}
	return fmtDigest("sweep-", lines...)
}

func fmtCellKey(spec core.Spec, arch mcu.Arch, cacheOn bool, backend string) string {
	cfg := harness.DefaultConfig()
	cfg.CacheOn = cacheOn
	return fmtDigest("cell-", "cellschema|1\n", fmtBackend(backend), fmtHarness(cfg), fmtKernel(spec), fmtBoard(arch))
}

func fmtStaticCellKey(spec core.Spec) string {
	return fmtDigest("cell-", "cellschema|1\nstatic\n", fmtKernel(spec))
}

// TestKeyEncodingMatchesFmt: the strconv encoders write exactly the
// fmt rendering for every registered kernel and board, and for random
// descriptors that reach the corners of %g and %+v (infinities, NaN,
// negative zero, exponent forms, odd bytes in names).
func TestKeyEncodingMatchesFmt(t *testing.T) {
	specs, archs := core.Suite(), mcu.All()
	cfg := harness.DefaultConfig()
	if got, want := report.SweepKey(specs, archs, cfg, ""), fmtSweepKey(specs, archs, cfg, ""); got != want {
		t.Errorf("all-registered SweepKey = %s, fmt reference %s", got, want)
	}
	for _, a := range archs {
		for _, s := range specs {
			for _, on := range []bool{false, true} {
				if got, want := report.CellKey(s, a, on, "trace+fp"), fmtCellKey(s, a, on, "trace+fp"); got != want {
					t.Fatalf("CellKey(%s, %s, %v) = %s, fmt reference %s", s.Name, a.Name, on, got, want)
				}
			}
		}
	}
	for _, s := range specs {
		if got, want := report.StaticCellKey(s), fmtStaticCellKey(s); got != want {
			t.Fatalf("StaticCellKey(%s) = %s, fmt reference %s", s.Name, got, want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		s, a, c := randomSpec(rng), randomArch(rng), randomConfig(rng)
		be := []string{"", "trace+" + randomString(rng)}[rng.Intn(2)]
		if got, want := report.SweepKey([]core.Spec{s}, []mcu.Arch{a}, c, be), fmtSweepKey([]core.Spec{s}, []mcu.Arch{a}, c, be); got != want {
			t.Fatalf("case %d: SweepKey diverges from fmt:\n%s%s%s", i, fmtHarness(c), fmtKernel(s), fmtBoard(a))
		}
	}
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.Inf(1)
	case 1:
		return math.Inf(-1)
	case 2:
		return math.NaN()
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return 0
	case 5:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(100))
	case 6:
		return math.MaxFloat64 / float64(1+rng.Intn(100))
	case 7:
		return float64(rng.Int63n(1e9)) * 1000 // integral clocks, which %g renders in exponent form
	case 8:
		return -rng.Float64() * 1e-5
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
}

func randomString(rng *rand.Rand) string {
	const alphabet = "aZ09|{}: %+v\n\x00\xffé_-."
	b := make([]byte, rng.Intn(8))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func randomInt(rng *rand.Rand) int { return int(rng.Int63()) - int(rng.Int63()) }

func randomSpec(rng *rand.Rand) core.Spec {
	return core.Spec{
		Name: randomString(rng), Stage: core.Stage(randomString(rng)),
		Category: randomString(rng), Dataset: randomString(rng),
		Prec: mcu.Precision(rng.Intn(5) - 1), FLOPs: randomInt(rng),
		M7Only: rng.Intn(2) == 0, MinSRAMKB: randomInt(rng),
	}
}

func randomArch(rng *rand.Rand) mcu.Arch {
	a := mcu.Arch{
		Name: randomString(rng), Board: randomString(rng), ISA: randomString(rng),
		ClockHz: randomFloat(rng), FPU: mcu.FPUKind(rng.Intn(5) - 1), SRAMKB: randomInt(rng),
		HasCache: rng.Intn(2) == 0, IdleW: randomFloat(rng), Source: randomString(rng),
	}
	m := reflect.ValueOf(&a.Model).Elem()
	for i := 0; i < m.NumField(); i++ {
		m.Field(i).SetFloat(randomFloat(rng))
	}
	return a
}

func randomConfig(rng *rand.Rand) harness.Config {
	return harness.Config{
		Reps: randomInt(rng), Warmup: randomInt(rng), CacheOn: rng.Intn(2) == 0,
		MinROITimeS: randomFloat(rng),
	}
}

// keyExclusions lists the identity-struct fields the key encoders
// deliberately do not write, each with the reason that is sound.
var keyExclusions = map[string]string{
	"core.Spec.Factory":       "code, not data: identity is by name plus descriptor (see key.go)",
	"core.Spec.StaticFactory": "code, not data: identity is by name plus descriptor (see key.go)",
	"mcu.Arch.IdleW":          "shapes only the synthesized trace outside the ROI; never reaches a measurement or the export (TestIdlePowerOutsideExport)",
}

// perturb changes one scalar field so any encoder that writes it must
// produce a different key. It reports false for kinds it cannot vary.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "~")
	case reflect.Int, reflect.Int64, reflect.Int32:
		v.SetInt(v.Int() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	default:
		return false
	}
	return true
}

// TestKeysCoverIdentityFields fails when core.Spec, mcu.Arch,
// mcu.ModelParams or harness.Config gains a field the key encoders do
// not write (and that keyExclusions does not justify): perturbing any
// covered field must change the key.
func TestKeysCoverIdentityFields(t *testing.T) {
	spec, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick not registered")
	}
	arch, cfg := mcu.M4, harness.DefaultConfig()
	key := func() string { return report.SweepKey([]core.Spec{spec}, []mcu.Arch{arch}, cfg, "") }
	base := key()

	// walk perturbs every scalar field reachable from v (recursing into
	// nested structs), checks the key moved, and restores the field.
	excluded := map[string]bool{}
	var walk func(name string, v reflect.Value)
	walk = func(name string, v reflect.Value) {
		if _, ok := keyExclusions[name]; ok {
			excluded[name] = true
			return
		}
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(name+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		}
		saved := reflect.New(v.Type()).Elem()
		saved.Set(v)
		defer v.Set(saved)
		switch {
		case !perturb(v):
			t.Errorf("%s (%s): unhandled kind; encode it in key.go or add it to keyExclusions with a reason", name, v.Type())
		case key() == base:
			t.Errorf("%s is not written by the key encoders; encode it in key.go or add it to keyExclusions with a reason", name)
		}
	}
	walk("core.Spec", reflect.ValueOf(&spec).Elem())
	walk("mcu.Arch", reflect.ValueOf(&arch).Elem())
	walk("harness.Config", reflect.ValueOf(&cfg).Elem())

	for name := range keyExclusions {
		if !excluded[name] {
			t.Errorf("keyExclusions lists %s, which no longer exists", name)
		}
	}
}

// TestIdlePowerOutsideExport pins the reason IdleW is excluded from
// every key: two boards that differ only in their idle draw produce
// byte-identical exports, so sharing one cache entry is sound.
func TestIdlePowerOutsideExport(t *testing.T) {
	var specs []core.Spec
	for _, name := range []string{"madgwick", "fly-lqr", "p3p", "bee-ceekf"} {
		sp, ok := core.ByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		specs = append(specs, sp)
	}
	export := func(idleW float64) []byte {
		a := mcu.M4
		a.IdleW = idleW
		recs, err := core.CharacterizeSuiteOpts(specs, []mcu.Arch{a}, core.SweepOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := (report.Characterization{Records: recs}).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	low, high := export(0.001), export(0.5)
	if !bytes.Equal(low, high) {
		t.Fatal("exports differ with IdleW alone: IdleW must then be part of the keys")
	}
}

package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func runFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("arch", "M4", "")
	fs.Bool("nocache", false, "")
	fs.String("csv", "", "")
	return fs
}

func TestReorderArgs(t *testing.T) {
	cases := []struct {
		name string
		in   []string
		want []string
	}{
		{"kernel-first", []string{"madgwick", "-arch", "M33", "-nocache"},
			[]string{"-arch", "M33", "-nocache", "madgwick"}},
		{"flags-first", []string{"-arch", "M33", "-nocache", "madgwick"},
			[]string{"-arch", "M33", "-nocache", "madgwick"}},
		{"interleaved", []string{"-arch", "M33", "madgwick", "-nocache"},
			[]string{"-arch", "M33", "-nocache", "madgwick"}},
		{"equals-form", []string{"madgwick", "-arch=M7"},
			[]string{"-arch=M7", "madgwick"}},
		{"bool-then-kernel", []string{"-nocache", "madgwick"},
			[]string{"-nocache", "madgwick"}},
		{"double-dash-stops", []string{"-nocache", "--", "-weird-name"},
			[]string{"-nocache", "-weird-name"}},
		{"bare-kernel", []string{"madgwick"}, []string{"madgwick"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := reorderArgs(runFlagSet(), c.in)
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("reorderArgs(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

// End-to-end: one Parse must see both orderings identically.
func TestRunFlagOrderings(t *testing.T) {
	for _, args := range [][]string{
		{"madgwick", "-arch", "M33", "-nocache"},
		{"-arch", "M33", "-nocache", "madgwick"},
		{"-arch", "M33", "madgwick", "-nocache"},
	} {
		fs := runFlagSet()
		if err := fs.Parse(reorderArgs(fs, args)); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		if fs.NArg() != 1 || fs.Arg(0) != "madgwick" {
			t.Fatalf("args %v: positional = %v", args, fs.Args())
		}
		if fs.Lookup("arch").Value.String() != "M33" {
			t.Fatalf("args %v: arch = %s", args, fs.Lookup("arch").Value.String())
		}
		if fs.Lookup("nocache").Value.String() != "true" {
			t.Fatalf("args %v: nocache not set", args)
		}
	}
}

// TestUsageListsEveryCommand keeps the three command references in
// sync: the commands table (source of truth), the generated usage
// text, and the README "Command reference" table. Adding a command or
// flag to the table without updating the README fails here; editing
// the README without the table fails the row count.
func TestUsageListsEveryCommand(t *testing.T) {
	text := usageText()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	// Scope to the Command reference section: other README tables use
	// the same row shape.
	section := string(readme)
	if i := strings.Index(section, "## Command reference"); i >= 0 {
		section = section[i:]
	} else {
		t.Fatal("README lost its Command reference section")
	}
	if j := strings.Index(section[1:], "\n## "); j >= 0 {
		section = section[:j+1]
	}
	lines := strings.Split(section, "\n")

	readmeRow := func(name string) (string, bool) {
		prefix := "| `" + name + "`"
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				return l, true
			}
		}
		return "", false
	}

	for _, c := range commands {
		if c.run == nil {
			t.Errorf("%s: nil run func", c.name)
		}
		if got, ok := lookup(c.name); !ok || got.name != c.name {
			t.Errorf("lookup(%q) failed", c.name)
		}
		for _, a := range c.aliases {
			if got, ok := lookup(a); !ok || got.name != c.name {
				t.Errorf("alias %q does not resolve to %q", a, c.name)
			}
		}

		if !strings.Contains(text, c.name) {
			t.Errorf("usage text missing command %q", c.name)
		}
		if !strings.Contains(text, c.summary) {
			t.Errorf("usage text missing summary for %q", c.name)
		}
		if c.args != "" && !strings.Contains(text, c.args) {
			t.Errorf("usage text missing argument synopsis for %q", c.name)
		}

		row, ok := readmeRow(c.name)
		if !ok {
			t.Errorf("README command reference missing a row for %q", c.name)
			continue
		}
		if !strings.Contains(row, c.summary) {
			t.Errorf("README row for %q lost its summary:\n%s", c.name, row)
		}
		if c.args != "" && !strings.Contains(row, "`"+c.args+"`") {
			t.Errorf("README row for %q out of sync with its flags (want %q):\n%s",
				c.name, c.args, row)
		}
		for _, a := range c.aliases {
			if !strings.Contains(row, "`"+a+"`") {
				t.Errorf("README row for %q does not mention alias %q:\n%s", c.name, a, row)
			}
		}
	}

	// No stale rows: exactly one row per command.
	var rows int
	for _, l := range lines {
		if strings.HasPrefix(l, "| `") {
			rows++
		}
	}
	if rows != len(commands) {
		t.Errorf("README has %d command rows, command table has %d", rows, len(commands))
	}

	if _, ok := lookup("no-such-command"); ok {
		t.Error("lookup accepted an unknown command")
	}
}

// captureOutput runs fn with os.Stdout and os.Stderr redirected to
// temporary files and returns what each received.
func captureOutput(t *testing.T, fn func()) (stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
	fn()
	outF.Close()
	errF.Close()
	o, _ := os.ReadFile(outF.Name())
	e, _ := os.ReadFile(errF.Name())
	return string(o), string(e)
}

// A shard run only fills the cell store, so it needs one; a malformed
// slot is still reported as such.
func TestSweepShardFlagValidation(t *testing.T) {
	err := sweep([]string{"-shard", "1/2"})
	if err == nil || !strings.Contains(err.Error(), "-cachedir") {
		t.Fatalf("-shard without -cachedir: err = %v, want one naming -cachedir", err)
	}
	for _, bad := range []string{"0/2", "3/2", "1-2", "a/b"} {
		err := sweep([]string{"-shard", bad, "-cachedir", t.TempDir()})
		if err == nil || !strings.Contains(err.Error(), "invalid -shard") {
			t.Errorf("-shard %s: err = %v, want the I/N parse error", bad, err)
		}
	}
	if _, ok := lookup("merge"); ok {
		t.Error("the merge command is back; shards assemble through the cell store")
	}
}

// A shard run writes nothing to stdout — its output is the records it
// stores — and one summary line to stderr.
func TestSweepShardWritesOnlyTheStore(t *testing.T) {
	dir := t.TempDir()
	var err error
	stdout, stderr := captureOutput(t, func() {
		err = sweep([]string{"-shard", "1/2", "-archs", "M4", "-j", "1", "-cachedir", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if stdout != "" {
		t.Fatalf("shard run wrote %d bytes to stdout", len(stdout))
	}
	if lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "shard 1/2: ") {
		t.Fatalf("shard run stderr = %q, want one summary line", stderr)
	}
	if recs, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(recs) == 0 {
		t.Fatal("shard run stored no records")
	}
}

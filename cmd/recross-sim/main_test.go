package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sim.golden from the current tree")

// TestSimGolden holds the command's output, table and JSON, single- and
// multi-channel, to testdata/sim.golden byte for byte. A change that means
// to move a number re-records with -update and says why.
func TestSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every architecture on Criteo-Kaggle batches")
	}
	invocations := []string{
		"-arch all",
		"-arch all -json",
		"-channels 2 -arch all",
		"-arch fafnir",
		"-arch rank-nmp",
	}
	var sb strings.Builder
	for _, inv := range invocations {
		args := inv + " -pooling 8 -batch 4 -profile 300"
		fmt.Fprintf(&sb, "# recross-sim %s\n", args)
		if err := run(strings.Fields(args), &sb, io.Discard); err != nil {
			t.Fatalf("%s: %v", args, err)
		}
	}
	got := sb.String()

	const path = "testdata/sim.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, golden has %d (re-record with -update if intended)", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("line %d differs from %s (re-record with -update if intended)\n got: %s\nwant: %s", i+1, path, gl[i], wl[i])
		}
	}
}

// TestRunRejects: a misspelled -config key, an unknown -arch and a
// non-positive dimension fail with an error that says what was wrong,
// and print nothing.
func TestRunRejects(t *testing.T) {
	cfg := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(cfg, []byte(`{"chanels": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ args, want string }{
		{"-pooling 8 -batch 4 -profile 300 -config " + cfg, `unknown field "chanels"`},
		{"-arch bogus", `unknown architecture "bogus" (want one of ` +
			`[cpu tensordimm recnmp trim-g trim-b recross] or [rank-nmp fafnir bank-nmp])`},
		{"-batch 0", "non-positive workload dimension"},
	} {
		var stdout bytes.Buffer
		err := run(strings.Fields(c.args), &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %s", c.args, err, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed before failing:\n%s", c.args, stdout.String())
		}
	}
}

package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick.golden from the current tree")

// quickRuns renders each registered experiment at Quick() at most once per
// test binary, so the golden test and the property tests below check one
// result instead of each recomputing it.
var quickRuns = func() map[string]func() (any, error) {
	runs := map[string]func() (any, error){}
	for _, e := range Experiments {
		runs[e.Name] = sync.OnceValues(func() (any, error) { return e.Run(Quick()) })
	}
	return runs
}()

// quick returns the named experiment's Quick() result as a T.
func quick[T any](t *testing.T, name string) T {
	t.Helper()
	res, err := quickRuns[name]()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.(T)
}

// TestExperimentsGolden holds every registered experiment's rendered
// output at Quick() to testdata/quick.golden, byte for byte. A change that
// means to move a table re-records with -update and says why.
func TestExperimentsGolden(t *testing.T) {
	var sb strings.Builder
	for _, e := range Experiments {
		fmt.Fprintf(&sb, "# %s\n%s\n", e.Name, quick[any](t, e.Name))
	}
	got := sb.String()

	const path = "testdata/quick.golden"
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

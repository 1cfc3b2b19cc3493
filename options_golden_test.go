package recross

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestOptionSurface holds the root API's configuration surface to
// testdata/options.golden: one line per independently settable value of
// each config struct a caller fills in. Struct-valued fields defined in
// this module are walked into (except ModelSpec, the workload rather than
// a knob); pointers, slices, maps and funcs are single values. A change
// that adds or removes a knob re-records with -update, and CI's size
// ceiling caps the line count.
func TestOptionSurface(t *testing.T) {
	roots := []struct {
		name string
		v    any
	}{
		{"Config", Config{}}, {"ColdTierConfig", ColdTierConfig{}}, {"ClusterConfig", ClusterConfig{}},
		{"ServeOptions", ServeOptions{}}, {"FaultConfig", FaultConfig{}},
		{"ColdFaultConfig", ColdFaultConfig{}}, {"NodeFaultConfig", NodeFaultConfig{}},
		{"LoadgenOptions", LoadgenOptions{}}, {"BinNodeOptions", BinNodeOptions{}},
		{"ClusterPlacementOptions", ClusterPlacementOptions{}}, {"ReCrossConfig", ReCrossConfig{}},
	}
	var b strings.Builder
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := prefix + "." + f.Name
			if f.Type.Kind() == reflect.Struct && strings.HasPrefix(f.Type.PkgPath(), "recross/") &&
				f.Type != reflect.TypeOf(ModelSpec{}) {
				walk(name, f.Type)
				continue
			}
			fmt.Fprintf(&b, "%s %s\n", name, f.Type)
		}
	}
	for _, r := range roots {
		walk(r.name, reflect.TypeOf(r.v))
	}
	got := b.String()

	const path = "testdata/options.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with go test -run TestOptionSurface -update .)", err)
	}
	if got != string(want) {
		t.Errorf("option surface differs from %s; re-record with -update if the change is meant:\n%s", path, got)
	}
}

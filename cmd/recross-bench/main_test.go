package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recross/internal/experiments"
)

// TestJSONCellsAreTyped: -json ships every label as a JSON string and
// every value as a JSON number, and ext-training's "-" stays a label.
func TestJSONCellsAreTyped(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-quick", "-json", "fig13", "ext-training"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	var doc struct {
		Results []struct {
			Name string
			Rows [][]any
		}
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("%d results, want 2", len(doc.Results))
	}
	// kinds spells a row's cell types: s for a string, n for a number.
	kinds := func(row []any) string {
		var sb strings.Builder
		for _, c := range row {
			switch c.(type) {
			case string:
				sb.WriteByte('s')
			case float64:
				sb.WriteByte('n')
			default:
				sb.WriteByte('?')
			}
		}
		return sb.String()
	}
	fig13, training := doc.Results[0], doc.Results[1]
	if fig13.Name != "fig13" || len(fig13.Rows) != 7 {
		t.Fatalf("first result %s with %d rows, want fig13 with 7", fig13.Name, len(fig13.Rows))
	}
	for _, r := range fig13.Rows {
		if got := kinds(r); got != "sn" {
			t.Errorf("fig13 row %v has cell kinds %s, want sn", r, got)
		}
	}
	if training.Name != "ext-training" || len(training.Rows) != 2 {
		t.Fatalf("second result %s with %d rows, want ext-training with 2", training.Name, len(training.Rows))
	}
	for i, want := range []string{"snns", "snnn"} {
		if got := kinds(training.Rows[i]); got != want {
			t.Errorf("ext-training row %v has cell kinds %s, want %s", training.Rows[i], got, want)
		}
	}
	if training.Rows[0][3] != "-" {
		t.Errorf("inference overhead cell = %v, want \"-\"", training.Rows[0][3])
	}
}

// TestCSVIsTableCSV: -csv writes each table's CSV rendering, byte for byte.
func TestCSVIsTableCSV(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-quick", "-csv", dir, "fig13"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig13.csv"))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := experiments.Fig13(experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != tb.CSV() {
		t.Errorf("fig13.csv =\n%s\nwant\n%s", got, tb.CSV())
	}
}

// TestBadCommandLine: an unknown experiment or a workload dimension the
// config rejects is a usage error (exit 2) before any experiment runs.
func TestBadCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "fig13", "fig99"},
		{"-quick", "all", "fig13"},
		{"-quick", "-batch", "-3", "fig13"},
		{"-quick", "-pooling", "-1", "fig13"},
		{"-veclen", "-64", "fig13"},
		{"-ranks", "-2", "fig13"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if !errors.As(err, new(usageError)) {
			t.Errorf("%q: err = %v, want a usage error", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: ran before failing:\n%s", args, stdout.String())
		}
	}
}

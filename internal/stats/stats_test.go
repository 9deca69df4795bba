package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); got != tt.want {
				t.Fatalf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestNormalized(t *testing.T) {
	if got := Normalized(50, 100); got != 0.5 {
		t.Fatalf("Normalized(50, 100) = %v", got)
	}
	if got := Normalized(1, 0); !math.IsNaN(got) {
		t.Fatalf("Normalized(_, 0) = %v, want NaN", got)
	}
}

func TestImprovementPct(t *testing.T) {
	tests := []struct {
		value, base uint64
		want        float64
	}{
		{90, 100, 10},
		{110, 100, -10},
		{100, 100, 0},
	}
	for _, tt := range tests {
		if got := ImprovementPct(tt.value, tt.base); math.Abs(got-tt.want) > 1e-9 {
			t.Fatalf("ImprovementPct(%d, %d) = %v, want %v", tt.value, tt.base, got, tt.want)
		}
	}
	// A zero baseline is NaN, matching Normalized: a missing baseline
	// must be visible in reports, not rendered as "no change".
	if got := ImprovementPct(5, 0); !math.IsNaN(got) {
		t.Fatalf("ImprovementPct(_, 0) = %v, want NaN", got)
	}
}

// Both normalization helpers must agree on the zero-baseline case, so a
// report never shows a clean number in one column and garbage in the
// adjacent one for the same broken baseline.
func TestZeroBaselineConsistency(t *testing.T) {
	if n, i := Normalized(7, 0), ImprovementPct(7, 0); !math.IsNaN(n) || !math.IsNaN(i) {
		t.Fatalf("zero baseline: Normalized = %v, ImprovementPct = %v, want NaN for both", n, i)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Header: []string{"name", "value"}}
	tbl.Add("alpha", 12)
	tbl.Add("b", 3.14159)
	out := tbl.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "3.142") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Columns must align: every line has the same prefix width for col 1.
	if !strings.HasPrefix(lines[2], "alpha") || !strings.HasPrefix(lines[3], "b    ") {
		t.Fatalf("first column not left-aligned:\n%s", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tbl := &Table{Header: []string{"a"}}
	tbl.Add("x", 1, 2)
	out := tbl.String()
	if !strings.Contains(out, "2") {
		t.Fatalf("extra cells dropped:\n%s", out)
	}
	// Rows wider than the header are normalized up front: the separator
	// spans all columns, and the header's phantom cells emit no stray
	// padding.
	want := "a\n-------\nx  1  2\n"
	if out != want {
		t.Fatalf("ragged render = %q, want %q", out, want)
	}
}

func TestTableRaggedShortRow(t *testing.T) {
	tbl := &Table{Header: []string{"name", "x", "y"}}
	tbl.Add("full", 1, 2)
	tbl.Add("short")
	out := tbl.String()
	for i, line := range strings.Split(out, "\n") {
		if line != strings.TrimRight(line, " ") {
			t.Fatalf("line %d has trailing whitespace: %q\n%s", i, line, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestTableEmpty(t *testing.T) {
	if out := (&Table{}).String(); out != "" {
		t.Fatalf("empty table rendered %q, want empty", out)
	}
}

func TestTableRendersNaN(t *testing.T) {
	tbl := &Table{Header: []string{"name", "value"}}
	tbl.Add("broken", math.NaN())
	if out := tbl.String(); !strings.Contains(out, "NaN") {
		t.Fatalf("NaN cell not visible:\n%s", out)
	}
}

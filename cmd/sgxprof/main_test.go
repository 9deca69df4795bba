package main

import (
	"strings"
	"testing"
)

func TestProfileOutput(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-bench", "deepsjeng"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"classification:", "large working set, irregular access",
		"instrumented:", "irregular",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPatternDump(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-bench", "lbm", "-pattern"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "linear fit:") || !strings.Contains(out, "# index page") {
		t.Errorf("pattern dump incomplete:\n%.400s", out)
	}
	// The dump must contain data lines.
	lines := strings.Split(out, "\n")
	var data int
	for _, l := range lines {
		if len(l) > 0 && l[0] >= '0' && l[0] <= '9' {
			data++
		}
	}
	if data < 100 {
		t.Errorf("pattern dump has only %d data lines", data)
	}
}

func TestRefInput(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-bench", "microbenchmark", "-input", "ref"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ref input") {
		t.Errorf("ref input not honored:\n%.200s", buf.String())
	}
}

func TestUnknownBenchmark(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-bench", "nope"}, &buf); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestSiteOrderDeterministic: the site table lists tied sites in
// ascending id, so repeated runs print identical bytes. lbm's sites 101
// to 105 share one irregular ratio.
func TestSiteOrderDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 8; i++ {
		var buf strings.Builder
		if err := run([]string{"-bench", "lbm"}, &buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatalf("run %d printed different bytes:\n%s\nfirst run:\n%s", i, buf.String(), first)
		}
	}
	i104, i105 := strings.Index(first, "\n104 "), strings.Index(first, "\n105 ")
	if i104 < 0 || i105 < 0 || i104 > i105 {
		t.Fatalf("tied sites 104 and 105 not listed in ascending order:\n%s", first)
	}
}

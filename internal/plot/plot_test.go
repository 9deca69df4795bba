package plot

import (
	"math"
	"strings"
	"testing"
)

func lineChart() Chart {
	return Chart{
		Title:  "test sweep",
		XLabel: "x",
		YLabel: "normalized time",
		Kind:   "line",
		YRef:   1.0,
		Series: []Series{
			{Name: "a", X: []float64{1, 2, 4, 8}, Y: []float64{1.0, 0.9, 0.87, 0.86}},
			{Name: "b", X: []float64{1, 2, 4, 8}, Y: []float64{1.05, 1.1, 1.24, 1.47}},
		},
	}
}

func TestLineChartSVG(t *testing.T) {
	svg := lineChart().SVG()
	for _, want := range []string{
		"<svg", "</svg>", "polyline", "test sweep", "normalized time",
		"stroke-dasharray",       // the YRef line
		">a</text>", ">b</text>", // legend entries
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestScatterChartSVG(t *testing.T) {
	c := Chart{
		Title: "pattern", Kind: "scatter", YRef: math.NaN(),
		Series: []Series{{Name: "pages", X: []float64{0, 1, 2}, Y: []float64{10, 20, 15}}},
	}
	svg := c.SVG()
	if strings.Count(svg, "<circle") != 3 {
		t.Errorf("scatter plotted %d circles, want 3", strings.Count(svg, "<circle"))
	}
	if strings.Contains(svg, "polyline") {
		t.Error("scatter drew lines")
	}
}

func TestBarChartSVG(t *testing.T) {
	c := Chart{
		Title: "improvements", Kind: "bar", YRef: math.NaN(),
		XTicks: []string{"lbm", "mcf", "xz"},
		Series: []Series{
			{Name: "DFP", Y: []float64{13.3, -15.6, 1.2}},
			{Name: "DFP-stop", Y: []float64{13.3, -0.8, 1.8}},
		},
	}
	svg := c.SVG()
	// 2 series x 3 categories of data bars + 2 legend swatches.
	if got := strings.Count(svg, "<rect"); got != 6+2+1 { // +1 background
		t.Errorf("bar chart drew %d rects, want 9", got)
	}
	for _, lbl := range []string{"lbm", "mcf", "xz"} {
		if !strings.Contains(svg, ">"+lbl+"<") {
			t.Errorf("missing category label %q", lbl)
		}
	}
}

func TestSVGDeterministic(t *testing.T) {
	if lineChart().SVG() != lineChart().SVG() {
		t.Fatal("SVG output not deterministic")
	}
}

func TestEmptyChart(t *testing.T) {
	svg := Chart{Title: "empty", Kind: "line", YRef: math.NaN()}.SVG()
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("empty chart is not a valid SVG skeleton")
	}
}

func TestEscaping(t *testing.T) {
	c := Chart{Title: `a<b & "c"`, Kind: "line", YRef: math.NaN()}
	svg := c.SVG()
	if strings.Contains(svg, "a<b") {
		t.Error("title not escaped")
	}
	if !strings.Contains(svg, "a&lt;b &amp; &quot;c&quot;") {
		t.Error("escaped title missing")
	}
}

func TestTicksAreRound(t *testing.T) {
	for _, tc := range []struct{ lo, hi float64 }{
		{0, 1}, {0.8, 2.1}, {-40, 25}, {0, 1000000},
	} {
		tv := ticks(tc.lo, tc.hi, 6)
		if len(tv) < 2 {
			t.Errorf("ticks(%v, %v) = %v, want >= 2", tc.lo, tc.hi, tv)
			continue
		}
		for _, v := range tv {
			if v < tc.lo-1e-9 || v > tc.hi+1e-9 {
				t.Errorf("tick %v outside [%v, %v]", v, tc.lo, tc.hi)
			}
		}
	}
}

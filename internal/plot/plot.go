// Package plot renders the evaluation's figures as standalone SVG files
// using only the standard library. It supports the three chart shapes the
// paper uses: scatter plots (Figure 3's page-versus-time patterns), line
// charts (the parameter sweeps of Figures 6, 7, and 9), and grouped bar
// charts (the per-benchmark comparisons of Figures 8, 10, 12, and 13).
//
// The output is deliberately plain — axes, ticks, series, legend — and
// deterministic: the same data always renders to the same bytes, so the
// files can be golden-tested.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named data series.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	// Kind optionally overrides the chart's mark for this series
	// ("scatter", "line", or "bar"; empty inherits Chart.Kind). Event
	// timelines use it to overlay a marker line on a scatter field.
	Kind string
}

// Chart describes a figure.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	// Kind selects the mark: "scatter", "line", or "bar". For bars, each
	// series contributes one bar per category and X is ignored (categories
	// come from XTicks).
	Kind string
	// Series holds the data.
	Series []Series
	// XTicks optionally names categorical x positions (bar charts) or
	// fixes tick labels (line charts); empty means automatic numeric
	// ticks.
	XTicks []string
	// YRef draws a horizontal reference line (e.g. normalized time 1.0);
	// NaN disables it.
	YRef float64
}

// Canvas geometry (fixed; the figures are small and uniform).
const (
	width   = 640.0
	height  = 400.0
	marginL = 70.0
	marginR = 150.0
	marginT = 40.0
	marginB = 50.0
)

// palette holds the series colors (colorblind-safe-ish).
var palette = []string{"#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#000000", "#999999"}

// SVG renders the chart.
func (c Chart) SVG() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%g" height="%g" viewBox="0 0 %g %g">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
		marginL, marginT-16, esc(c.Title))

	xmin, xmax, ymin, ymax := c.bounds()
	plotW := width - marginL - marginR
	plotH := height - marginT - marginB
	xpos := func(x float64) float64 {
		if xmax == xmin {
			return marginL + plotW/2
		}
		return marginL + (x-xmin)/(xmax-xmin)*plotW
	}
	ypos := func(y float64) float64 {
		if ymax == ymin {
			return marginT + plotH/2
		}
		return marginT + plotH - (y-ymin)/(ymax-ymin)*plotH
	}

	// Axes.
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n",
		marginL, marginT+plotH, marginL+plotW, marginT+plotH)
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n",
		marginL, marginT, marginL, marginT+plotH)
	fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		marginL+plotW/2, height-12, esc(c.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%g" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 16 %g)">%s</text>`+"\n",
		marginT+plotH/2, marginT+plotH/2, esc(c.YLabel))

	// Y ticks.
	for _, tv := range ticks(ymin, ymax, 6) {
		y := ypos(tv)
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#dddddd"/>`+"\n",
			marginL, y, marginL+plotW, y)
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+4, fmtTick(tv))
	}
	// X ticks.
	if len(c.XTicks) > 0 {
		for i, lbl := range c.XTicks {
			x := xpos(float64(i))
			if c.Kind == "bar" {
				x = marginL + (float64(i)+0.5)/float64(len(c.XTicks))*plotW
			}
			fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="10" text-anchor="middle">%s</text>`+"\n",
				x, marginT+plotH+16, esc(lbl))
		}
	} else {
		for _, tv := range ticks(xmin, xmax, 7) {
			x := xpos(tv)
			fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
				x, marginT+plotH+16, fmtTick(tv))
		}
	}

	// Reference line.
	if !math.IsNaN(c.YRef) && c.YRef >= ymin && c.YRef <= ymax {
		y := ypos(c.YRef)
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#888888" stroke-dasharray="5,4"/>`+"\n",
			marginL, y, marginL+plotW, y)
	}

	// Marks.
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		kind := c.Kind
		if s.Kind != "" {
			kind = s.Kind
		}
		switch kind {
		case "scatter":
			for i := range s.X {
				fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="1.6" fill="%s" fill-opacity="0.6"/>`+"\n",
					xpos(s.X[i]), ypos(s.Y[i]), color)
			}
		case "bar":
			cats := len(c.XTicks)
			if cats == 0 {
				cats = len(s.Y)
			}
			groupW := plotW / float64(cats)
			barW := groupW * 0.8 / float64(len(c.Series))
			for i := range s.Y {
				x := marginL + float64(i)*groupW + groupW*0.1 + float64(si)*barW
				y0 := ypos(math.Max(0, math.Min(c.baseline(), ymax)))
				y1 := ypos(s.Y[i])
				top, h := y1, y0-y1
				if h < 0 {
					top, h = y0, -h
				}
				fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
					x, top, barW, h, color)
			}
		default: // line
			var pts []string
			for i := range s.X {
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", xpos(s.X[i]), ypos(s.Y[i])))
			}
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
				strings.Join(pts, " "), color)
			for i := range s.X {
				fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n",
					xpos(s.X[i]), ypos(s.Y[i]), color)
			}
		}
	}

	// Legend.
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		y := marginT + 14 + float64(si)*18
		fmt.Fprintf(&b, `<rect x="%g" y="%g" width="12" height="12" fill="%s"/>`+"\n",
			width-marginR+14, y-10, color)
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			width-marginR+30, y, esc(s.Name))
	}

	b.WriteString("</svg>\n")
	return b.String()
}

// baseline returns the bar chart's zero line (0, or ymin if positive).
func (c Chart) baseline() float64 {
	_, _, ymin, _ := c.bounds()
	if ymin > 0 {
		return ymin
	}
	return 0
}

// bounds computes the data extents with a little headroom.
func (c Chart) bounds() (xmin, xmax, ymin, ymax float64) {
	first := true
	for _, s := range c.Series {
		for i := range s.Y {
			x := 0.0
			if i < len(s.X) {
				x = s.X[i]
			} else {
				x = float64(i)
			}
			y := s.Y[i]
			if first {
				xmin, xmax, ymin, ymax = x, x, y, y
				first = false
				continue
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if first {
		return 0, 1, 0, 1
	}
	if !math.IsNaN(c.YRef) {
		ymin, ymax = math.Min(ymin, c.YRef), math.Max(ymax, c.YRef)
	}
	pad := (ymax - ymin) * 0.08
	if pad == 0 {
		pad = 1
	}
	ymin -= pad
	ymax += pad
	if c.Kind == "bar" {
		xmin, xmax = 0, math.Max(1, float64(len(c.XTicks)))
	}
	return xmin, xmax, ymin, ymax
}

// ticks returns ~n round tick values covering [lo, hi].
func ticks(lo, hi float64, n int) []float64 {
	if hi <= lo || n < 2 {
		return []float64{lo}
	}
	raw := (hi - lo) / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch norm := raw / mag; {
	case norm < 1.5:
		step = mag
	case norm < 3.5:
		step = 2 * mag
	case norm < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	start := math.Ceil(lo/step) * step
	var out []float64
	for v := start; v <= hi+step/1e6; v += step {
		out = append(out, v)
	}
	return out
}

// fmtTick renders a tick value compactly.
func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.0fk", v/1e3)
	case av == math.Trunc(av):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// esc escapes text for SVG.
func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

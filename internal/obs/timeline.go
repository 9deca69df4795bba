package obs

import (
	"sgxpreload/internal/mem"
	"sgxpreload/internal/plot"
)

// Timeline renders the event stream as a page-versus-time chart in the
// style of the paper's Figure 3, with the observability layer's extra
// dimensions: demand faults, completed preloads, and evictions are
// scatter series, and the DFP-stop trip point (if any) is a vertical
// line. maxPoints caps each series (uniform downsampling) so the SVG
// stays viewable for long runs; <= 0 means no cap.
func Timeline(title string, events []Event, maxPoints int) plot.Chart {
	var faultX, faultY, preX, preY, evX, evY []float64
	var ymin, ymax float64
	var stop uint64
	first, stopped := true, false
	note := func(p mem.PageID) {
		y := float64(p)
		if first {
			ymin, ymax, first = y, y, false
			return
		}
		if y < ymin {
			ymin = y
		}
		if y > ymax {
			ymax = y
		}
	}
	for _, e := range events {
		if e.Kind == KindDFPStop && !stopped {
			stop, stopped = e.T, true
		}
		if e.Page == mem.NoPage {
			continue
		}
		switch e.Kind {
		case KindFaultEnd:
			faultX = append(faultX, float64(e.T))
			faultY = append(faultY, float64(e.Page))
			note(e.Page)
		case KindLoadComplete:
			if e.V2 == 1 {
				preX = append(preX, float64(e.T))
				preY = append(preY, float64(e.Page))
				note(e.Page)
			}
		case KindEvict:
			evX = append(evX, float64(e.T))
			evY = append(evY, float64(e.Page))
			note(e.Page)
		}
	}

	c := plot.Chart{
		Title:  title,
		XLabel: "virtual time (cycles)",
		YLabel: "page",
		Kind:   "scatter",
	}
	add := func(name string, x, y []float64) {
		if len(x) == 0 {
			return
		}
		x, y = downsample(x, y, maxPoints)
		c.Series = append(c.Series, plot.Series{Name: name, X: x, Y: y})
	}
	add("fault", faultX, faultY)
	add("preload", preX, preY)
	add("evict", evX, evY)
	if stop > 0 && !first {
		c.Series = append(c.Series, plot.Series{
			Name: "DFP-stop",
			Kind: "line",
			X:    []float64{float64(stop), float64(stop)},
			Y:    []float64{ymin, ymax},
		})
	}
	return c
}

// downsample keeps at most n points, uniformly spaced, preserving the
// first and last.
func downsample(x, y []float64, n int) ([]float64, []float64) {
	if n <= 0 || len(x) <= n {
		return x, y
	}
	ox := make([]float64, 0, n)
	oy := make([]float64, 0, n)
	step := float64(len(x)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		j := int(float64(i)*step + 0.5)
		if j >= len(x) {
			j = len(x) - 1
		}
		ox = append(ox, x[j])
		oy = append(oy, y[j])
	}
	return ox, oy
}

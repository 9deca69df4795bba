// Package stats provides the small statistical helpers the evaluation
// uses: means, normalization against a baseline, improvement percentages,
// and fixed-width table rendering for the experiment reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice). The paper
// reports arithmetic means over five runs; the simulator is deterministic,
// so means here aggregate across benchmarks instead.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Normalized returns value/baseline — the "normalized execution time" of
// the paper's figures (1.0 = baseline, below 1.0 = faster). It returns
// NaN when baseline is 0.
func Normalized(value, baseline uint64) float64 {
	if baseline == 0 {
		return math.NaN()
	}
	return float64(value) / float64(baseline)
}

// ImprovementPct returns the performance improvement of value over
// baseline in percent: positive = faster than baseline. Like Normalized,
// it returns NaN when baseline is 0, so a missing baseline shows up as
// "NaN" in reports instead of masquerading as "no change". NaN compares
// false with everything, so threshold tests on the result (v < 0, v > x)
// treat a missing baseline as "neither" — and aggregates over it (Mean)
// propagate the NaN into the rendered table rather than hiding it.
func ImprovementPct(value, baseline uint64) float64 {
	if baseline == 0 {
		return math.NaN()
	}
	return 100 * (1 - float64(value)/float64(baseline))
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs by linear
// interpolation between closest ranks: rank p/100*(n-1) falls either on
// an element (returned exactly) or between two adjacent elements
// (interpolated). The input need not be sorted; it is not mutated. An
// empty input returns NaN — a missing sample set must not masquerade as
// a zero latency — and p is clamped to [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return SortedPercentile(sorted, p)
}

// SortedPercentile is Percentile over an already-ascending slice. Callers
// extracting several percentiles of one sample set (p50/p95/p99 tables)
// sort once and call this per tail point.
func SortedPercentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if frac == 0 || lo+1 >= n {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Table renders rows as a fixed-width text table with the given header.
// Cells are right-aligned except the first column.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table. Ragged input is tolerated: every row
// (including the header) is normalized to the widest row's column count
// up front, so the separator, the padding, and the cells all agree, and
// the empty cells a short row leaves behind never emit stray padding —
// trailing whitespace is trimmed from every line.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	if cols == 0 {
		return ""
	}
	pad := func(r []string) []string {
		if len(r) >= cols {
			return r
		}
		out := make([]string, cols)
		copy(out, r)
		return out
	}
	header := pad(t.Header)
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = pad(r)
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(header)
	for _, r := range rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		var line strings.Builder
		for i := 0; i < cols; i++ {
			if i == 0 {
				fmt.Fprintf(&line, "%-*s", widths[i], r[i])
			} else {
				fmt.Fprintf(&line, "  %*s", widths[i], r[i])
			}
		}
		b.WriteString(strings.TrimRight(line.String(), " "))
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteByte('\n')
	}
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

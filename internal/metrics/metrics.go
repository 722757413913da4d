// Package metrics provides the small reporting toolkit the benchmark
// harness uses: aligned text tables, ratio formatting and simple
// aggregate statistics.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v (floats with %.2f).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Render(&sb)
	return sb.String()
}

// Ratio formats a speedup/ratio as "2.4x".
func Ratio(v float64) string { return fmt.Sprintf("%.1fx", v) }

// Pct formats a fraction as "42.6%".
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// Bytes formats a byte count with binary units.
func Bytes(n float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB", "PiB"}
	i := 0
	for n >= 1024 && i < len(units)-1 {
		n /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%.0f %s", n, units[i])
	}
	return fmt.Sprintf("%.2f %s", n, units[i])
}

// Seconds formats a duration in seconds with adaptive precision.
func Seconds(s float64) string {
	switch {
	case s >= 3600:
		return fmt.Sprintf("%.1fh", s/3600)
	case s >= 60:
		return fmt.Sprintf("%.1fm", s/60)
	case s >= 1:
		return fmt.Sprintf("%.1fs", s)
	default:
		return fmt.Sprintf("%.0fms", s*1000)
	}
}

// Summary holds aggregate statistics of a sample.
type Summary struct {
	N              int
	Min, Max, Mean float64
	P50, P90, P99  float64
	StdDev         float64
}

// Summarize computes aggregate statistics; it returns a zero Summary for
// an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		N:   len(sorted),
		Min: sorted[0],
		Max: sorted[len(sorted)-1],
		P50: quantile(sorted, 0.50),
		P90: quantile(sorted, 0.90),
		P99: quantile(sorted, 0.99),
	}
	// Welford's algorithm: overflow-safe incremental mean and variance.
	var mean, m2 float64
	for i, x := range sorted {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	s.Mean = mean
	s.StdDev = math.Sqrt(m2 / float64(len(sorted)))
	return s
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Sparkline renders values as a unicode mini-chart (for CLI figures).
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sb strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}

package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Figure X", "model", "speedup", "util")
	tb.AddRow("SlowFast", 2.4, "42%")
	tb.AddRow("BasicVSR++", 5.62, "15%")
	if tb.Rows() != 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	out := tb.String()
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "SlowFast") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if !strings.Contains(out, "2.40") || !strings.Contains(out, "5.62") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: header and rows have same prefix widths.
	hdr := lines[1]
	if !strings.HasPrefix(hdr, "model") {
		t.Fatalf("header line wrong: %q", hdr)
	}
}

func TestFormatters(t *testing.T) {
	if Ratio(2.44) != "2.4x" {
		t.Errorf("Ratio = %q", Ratio(2.44))
	}
	if Pct(0.426) != "42.6%" {
		t.Errorf("Pct = %q", Pct(0.426))
	}
	cases := map[float64]string{
		512:     "512 B",
		2048:    "2.00 KiB",
		3 << 30: "3.00 GiB",
		3.3e12:  "3.00 TiB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%v) = %q, want %q", in, got, want)
		}
	}
	secCases := map[float64]string{
		0.5:   "500ms",
		12.34: "12.3s",
		90:    "1.5m",
		7200:  "2.0h",
	}
	for in, want := range secCases {
		if got := Seconds(in); got != want {
			t.Errorf("Seconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stddev %v", s.StdDev)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
	one := Summarize([]float64{7})
	if one.P50 != 7 || one.P99 != 7 {
		t.Fatalf("singleton summary %+v", one)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize sorted the caller's slice")
	}
}

func TestQuickSummaryBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			// Restrict to magnitudes where x-y cannot overflow; metric
			// samples (seconds, bytes, ratios) are far below this.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e150 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Fatalf("sparkline extremes wrong: %q", s)
	}
	flat := []rune(Sparkline([]float64{5, 5, 5}))
	if flat[0] != flat[1] || flat[1] != flat[2] {
		t.Fatal("flat sparkline should be uniform")
	}
}

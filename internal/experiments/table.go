// Package experiments regenerates the paper's evaluation. The ICDCSW'02
// paper publishes no quantitative tables — its figures are architecture
// and message-flow diagrams and its claims are qualitative — so each
// experiment E1–E8 turns one figure or claim into a measured scenario
// (see DESIGN.md §3 for the mapping and EXPERIMENTS.md for recorded
// results).
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/runner"
)

// Table is one experiment's output: the rows cmd/mmscale prints.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table in aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "  %-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %s", c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// fmtDur renders a duration at microsecond precision.
func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }

// fmtPct renders a ratio as a percentage.
func fmtPct(r float64) string { return fmt.Sprintf("%.3f%%", 100*r) }

// fmtF renders a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtI renders an integer count.
func fmtI[T ~uint64 | ~int](v T) string { return fmt.Sprintf("%d", v) }

// Replicated cells render as "mean±std"; single-replication cells keep
// the plain single-run format so a reps=1 table is unchanged.

// fmtStatI renders an integer-valued stat.
func fmtStatI(s runner.Stat) string {
	if s.N <= 1 {
		return fmt.Sprintf("%d", int64(s.Mean))
	}
	return fmt.Sprintf("%.1f±%.1f", s.Mean, s.Std)
}

// fmtStatF renders a float stat.
func fmtStatF(s runner.Stat) string {
	if s.N <= 1 {
		return fmtF(s.Mean)
	}
	return fmt.Sprintf("%.2f±%.2f", s.Mean, s.Std)
}

// fmtStatPct renders a ratio stat as a percentage.
func fmtStatPct(s runner.Stat) string {
	if s.N <= 1 {
		return fmtPct(s.Mean)
	}
	return fmt.Sprintf("%.3f±%.3f%%", 100*s.Mean, 100*s.Std)
}

// fmtStatDur renders a stat measured in seconds as a duration.
func fmtStatDur(s runner.Stat) string {
	if s.N <= 1 {
		return fmtDur(secs(s.Mean))
	}
	return fmt.Sprintf("%v±%v", fmtDur(secs(s.Mean)), fmtDur(secs(s.Std)))
}

// fmtStatB renders a byte-count stat.
func fmtStatB(s runner.Stat) string {
	if s.N <= 1 {
		return fmt.Sprintf("%d B", int64(s.Mean))
	}
	return fmt.Sprintf("%.1f±%.1f B", s.Mean, s.Std)
}

func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

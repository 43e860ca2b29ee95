// Package experiments contains one runner per paper claim (E1–E15,
// indexed by All). Each runner builds its workload, executes the relevant
// protocols or algorithms, and returns a Table whose rows mirror what
// the paper's theorems predict — schedule-length scaling, stability
// frontiers, competitive ratios, latency growth, and the lower-bound
// separation. The cmd/experiments binary prints all tables;
// bench_test.go wires each runner into a benchmark.
package experiments

import (
	"context"
	"fmt"
	"strings"
)

// Scale selects the experiment size.
type Scale int

// Experiment scales. Quick keeps every experiment under roughly a
// second for use in benchmarks and CI; Full runs the paper-scale
// workloads (cmd/experiments -scale full).
const (
	Quick Scale = iota + 1
	Full
)

// String returns the scale name.
func (s Scale) String() string {
	if s == Quick {
		return "quick"
	}
	return "full"
}

// Table is one experiment's result set.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper statement being reproduced
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-text note rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned ASCII text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "*Claim:* %s\n\n", t.Claim)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	b.WriteByte('\n')
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "*Note:* %s\n\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (cells containing commas or
// quotes are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, cell := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(cell, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(cell)
		}
	}
	b.WriteByte('\n')
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(ctx context.Context, scale Scale, seed int64) (*Table, error)
}

// All returns every experiment in order.
func All() []Runner {
	return []Runner{
		{ID: "E1", Name: "densification", Run: E1Densify},
		{ID: "E2", Name: "stochastic stability", Run: E2Stability},
		{ID: "E3", Name: "latency vs path length", Run: E3Latency},
		{ID: "E4", Name: "adversarial injection", Run: E4Adversarial},
		{ID: "E5", Name: "linear-power competitiveness", Run: E5LinearPower},
		{ID: "E6", Name: "uniform-power competitiveness", Run: E6UniformPower},
		{ID: "E7", Name: "MAC thresholds", Run: E7MAC},
		{ID: "E8", Name: "conflict-graph schedule length", Run: E8ConflictGraph},
		{ID: "E9", Name: "global vs local clocks", Run: E9LowerBound},
		{ID: "E10", Name: "ablations", Run: E10Ablation},
		{ID: "E11", Name: "power-control competitiveness", Run: E11PowerControl},
		{ID: "E12", Name: "radio-network model", Run: E12Radio},
		{ID: "E13", Name: "fading vs general metrics", Run: E13Metrics},
		{ID: "E14", Name: "baseline comparison", Run: E14Baselines},
		{ID: "E15", Name: "spatial-index scale", Run: E15SpatialScale},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

func fmtF(v float64) string  { return fmt.Sprintf("%.3f", v) }
func fmtF1(v float64) string { return fmt.Sprintf("%.1f", v) }
func fmtI(v int) string      { return fmt.Sprintf("%d", v) }
func fmtB(stable bool) string {
	if stable {
		return "stable"
	}
	return "UNSTABLE"
}

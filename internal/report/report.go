// Package report renders experiment results as aligned text tables and
// heatmap grids, the terminal equivalent of the paper's figure panels.
package report

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Table is a simple aligned text table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
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
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
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
	return b.String()
}

// Heatmap renders a labeled numeric grid, the text analogue of the
// paper's parameter-sweep panels (e.g. Fig. 6's c×τ grids).
type Heatmap struct {
	title     string
	colTitle  string
	rowTitle  string
	colLabels []string
	rowLabels []string
	cells     [][]string
}

// NewHeatmap creates a rows×cols heatmap shell; fill it with Set.
func NewHeatmap(title, rowTitle, colTitle string, rowLabels, colLabels []string) *Heatmap {
	cells := make([][]string, len(rowLabels))
	for i := range cells {
		cells[i] = make([]string, len(colLabels))
		for j := range cells[i] {
			cells[i][j] = "-"
		}
	}
	return &Heatmap{
		title:     title,
		rowTitle:  rowTitle,
		colTitle:  colTitle,
		rowLabels: rowLabels,
		colLabels: colLabels,
		cells:     cells,
	}
}

// Set writes a formatted cell value; out-of-range indices are ignored.
func (h *Heatmap) Set(row, col int, value string) {
	if row < 0 || row >= len(h.cells) || col < 0 || col >= len(h.colLabels) {
		return
	}
	h.cells[row][col] = value
}

// SetFloat writes a cell with the given precision.
func (h *Heatmap) SetFloat(row, col int, value float64, decimals int) {
	h.Set(row, col, fmt.Sprintf("%.*f", decimals, value))
}

// String renders the heatmap.
func (h *Heatmap) String() string {
	tbl := NewTable(
		fmt.Sprintf("%s (rows: %s, cols: %s)", h.title, h.rowTitle, h.colTitle),
		append([]string{h.rowTitle + `\` + h.colTitle}, h.colLabels...)...,
	)
	for i, rl := range h.rowLabels {
		tbl.AddRow(append([]string{rl}, h.cells[i]...)...)
	}
	return tbl.String()
}

// Percent formats a fraction as a percentage with one decimal.
func Percent(f float64) string { return fmt.Sprintf("%.1f", 100*f) }

// Millis formats a duration in milliseconds with two decimals.
func Millis(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// DensityArt renders a count grid as ASCII art with a logarithmic shade
// ramp — the terminal rendering of Fig. 3.
func DensityArt(grid [][]int) string {
	const ramp = " .:-=+*#%@"
	maxCount := 0
	for _, row := range grid {
		for _, c := range row {
			if c > maxCount {
				maxCount = c
			}
		}
	}
	var b strings.Builder
	for _, row := range grid {
		for _, c := range row {
			idx := 0
			if c > 0 && maxCount > 1 {
				// log scale so sparse cells stay visible.
				idx = 1 + int(float64(len(ramp)-2)*logRatio(c, maxCount))
			} else if c > 0 {
				idx = len(ramp) - 1
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func logRatio(c, maxCount int) float64 {
	if maxCount <= 1 {
		return 1
	}
	return math.Log2(float64(c)) / math.Log2(float64(maxCount))
}

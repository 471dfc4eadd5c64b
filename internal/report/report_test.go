package report

import (
	"strings"
	"testing"
	"time"
)

func TestTable(t *testing.T) {
	tbl := NewTable("My results", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("a-very-long-name", "2")
	tbl.AddRow("short") // padded
	s := tbl.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if lines[0] != "My results" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("separator line = %q", lines[2])
	}
	if len(lines) != 6 {
		t.Errorf("line count = %d, want 6", len(lines))
	}
	// Alignment: "value" column starts at the same offset in all rows.
	idx := strings.Index(lines[1], "value")
	if !strings.HasPrefix(lines[3][idx:], "1") {
		t.Errorf("misaligned value column: %q", lines[3])
	}
}

func TestTableNoTitle(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow("x")
	if strings.HasPrefix(tbl.String(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap("Hit rate", "c", "tau", []string{"10", "50"}, []string{"0.5", "1"})
	h.SetFloat(0, 0, 0.123, 1)
	h.Set(1, 1, "93.0")
	h.Set(5, 5, "ignored") // out of range: no panic
	s := h.String()
	for _, want := range []string{"Hit rate", "0.1", "93.0", "10", "50"} {
		if !strings.Contains(s, want) {
			t.Errorf("heatmap output missing %q:\n%s", want, s)
		}
	}
	// Unset cells render as "-".
	if !strings.Contains(s, "-") {
		t.Error("unset cells should render as dashes")
	}
}

func TestFormatters(t *testing.T) {
	if got := Percent(0.7725); got != "77.2" {
		t.Errorf("Percent = %q", got)
	}
	if got := Millis(4800 * time.Millisecond); got != "4800.00" {
		t.Errorf("Millis = %q", got)
	}
}

func TestDensityArt(t *testing.T) {
	grid := [][]int{
		{0, 1},
		{10, 100},
	}
	art := DensityArt(grid)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != 2 {
		t.Fatalf("art shape wrong: %q", art)
	}
	if lines[0][0] != ' ' {
		t.Error("zero cell should render as space")
	}
	if lines[1][1] != '@' {
		t.Errorf("max cell should render with the darkest glyph, got %q", lines[1][1])
	}
	// Monotone shading: cell 10 darker than cell 1.
	ramp := " .:-=+*#%@"
	if strings.IndexByte(ramp, lines[1][0]) <= strings.IndexByte(ramp, lines[0][1]) {
		t.Error("larger counts should render darker")
	}
}

func TestDensityArtUniform(t *testing.T) {
	art := DensityArt([][]int{{1, 1}})
	if art != "@@\n" {
		t.Errorf("uniform single-count grid = %q", art)
	}
}

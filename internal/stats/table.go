package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table renders rows of mixed values as an aligned fixed-width text table,
// or as CSV for machine consumption. It is how cmd/experiments prints the
// paper's tables.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v, float64 with %.2f.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		case float32:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Headers returns the column headers.
func (t *Table) Headers() []string { return t.headers }

// Rows returns the formatted cells, row-major.
func (t *Table) Rows() [][]string { return t.rows }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
		return err
	}
	if err := line(t.headers); err != nil {
		return err
	}
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as CSV (header row first). Cells are escaped
// only for commas and quotes, which is all this repository produces.
func (t *Table) RenderCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			parts[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeRow(t.headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

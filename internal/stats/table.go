package stats

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Table is a simple rectangular result table used by the experiment
// harness. Cells are pre-formatted strings; the renderers only align.
// Row assembly is safe for concurrent producers: AddRow may be called
// from multiple goroutines, and callers needing a deterministic row
// order must serialise or reassemble themselves (the parallel
// experiment harness and the campaign runner stream rows through a
// RowStreamer, which appends each row once every row before it is
// in, so the table keeps grid order). Title, Note and Header are NOT
// synchronised: set them on one goroutine before or after assembly,
// and do not render while they may still change.
type Table struct {
	// Title identifies the table (e.g. "E7: FCFS bound vs simulation").
	Title string
	// Note is optional prose shown under the title.
	Note string
	// Header holds the column names.
	Header []string

	mu   sync.Mutex
	rows [][]string
}

// NewTable creates a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// formatRow renders cell values to the strings a row stores: strings
// pass through, floats get the fixed %.3f (so columns align), anything
// else renders with %v.
func formatRow(cells []any) []string {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	return row
}

// AddRow appends a row, its cells rendered as formatRow does: strings
// verbatim, float64 and float32 with %.3f, everything else with %v.
// Pre-format a float that needs another precision.
func (t *Table) AddRow(cells ...any) {
	row := formatRow(cells)
	t.mu.Lock()
	t.rows = append(t.rows, row)
	t.mu.Unlock()
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rows)
}

// Row returns a copy of row i.
func (t *Table) Row(i int) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.rows[i]...)
}

// snapshot returns the current rows; the renderers iterate over it so
// a concurrent AddRow cannot race with rendering.
func (t *Table) snapshot() [][]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][]string(nil), t.rows...)
}

// widths computes per-column display widths.
func widths(header []string, rows [][]string) []int {
	w := make([]int, len(header))
	for i, h := range header {
		w[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// WritePlain renders an aligned fixed-width text table.
func (t *Table) WritePlain(w io.Writer) error {
	rows := t.snapshot()
	ws := widths(t.Header, rows)
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Note); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(ws))
		for i := range ws {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", ws[i], c)
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	sep := make([]string, len(ws))
	for i, n := range ws {
		sep[i] = strings.Repeat("-", n)
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, r := range rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders a GitHub-flavoured markdown table, preceded by
// the title as a level-3 heading when present.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "%s\n\n", t.Note); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "|%s|\n", strings.Join(sep, "|")); err != nil {
		return err
	}
	for _, r := range t.snapshot() {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders RFC-4180-ish CSV (quotes only when needed).
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	rows := append([][]string{t.Header}, t.snapshot()...)
	for _, r := range rows {
		cells := make([]string, len(r))
		for i, c := range r {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintf(w, "%s\n", strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// String renders the plain form, for tests and logs.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.WritePlain(&sb)
	return sb.String()
}

// Render dispatches to the writer named by format: "plain", "md" or
// "csv" (the shared -format vocabulary of cmd/experiments and
// cmd/campaign).
func Render(w io.Writer, t *Table, format string) error {
	switch format {
	case "plain":
		return t.WritePlain(w)
	case "md":
		return t.WriteMarkdown(w)
	case "csv":
		return t.WriteCSV(w)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

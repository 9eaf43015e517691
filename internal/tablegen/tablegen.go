// Package tablegen renders the experiment results as text, CSV, Markdown or
// JSON tables whose layout mirrors the tables and figures of the paper, so
// the output of the benchmark harness and of the noctool CLI can be compared
// to the published numbers side by side (and, with JSON, consumed by
// machines).
package tablegen

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Format selects the output rendering.
type Format int

const (
	// FormatText renders an aligned plain-text table.
	FormatText Format = iota
	// FormatCSV renders comma-separated values.
	FormatCSV
	// FormatMarkdown renders a GitHub-flavoured Markdown table.
	FormatMarkdown
	// FormatJSON renders a machine-readable JSON object with the title,
	// the header list and one object per row keyed by header.
	FormatJSON
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatCSV:
		return "csv"
	case FormatMarkdown:
		return "markdown"
	case FormatJSON:
		return "json"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat converts a user-supplied string to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "text", "txt", "":
		return FormatText, nil
	case "csv":
		return FormatCSV, nil
	case "markdown", "md":
		return FormatMarkdown, nil
	case "json":
		return FormatJSON, nil
	default:
		return FormatText, fmt.Errorf("tablegen: unknown format %q (want text, csv, markdown or json)", s)
	}
}

// Table is a generic titled table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New creates an empty table with the given title and headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. Cells beyond the header count are dropped; missing
// cells are rendered empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table in the given format.
func (t *Table) Render(w io.Writer, f Format) error {
	switch f {
	case FormatCSV:
		return t.renderCSV(w)
	case FormatMarkdown:
		return t.renderMarkdown(w)
	case FormatJSON:
		return t.renderJSON(w)
	case FormatText:
		return t.renderText(w)
	default:
		return fmt.Errorf("tablegen: unknown format %v", f)
	}
}

func csvEscape(cell string) string {
	if strings.ContainsAny(cell, ",\"\n") {
		return `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
	}
	return cell
}

func (t *Table) renderCSV(w io.Writer) error {
	write := func(cells []string) error {
		escaped := make([]string, len(cells))
		for i, c := range cells {
			escaped[i] = csvEscape(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(escaped, ","))
		return err
	}
	if err := write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := write(row); err != nil {
			return err
		}
	}
	return nil
}

// renderJSON emits {"title", "headers", "rows"} with each row as an object
// keyed by header name, so downstream tooling does not need the column
// order. Rows longer than the header list keep their extra cells under
// positional "col<N>" keys.
func (t *Table) renderJSON(w io.Writer) error {
	type doc struct {
		Title   string              `json:"title,omitempty"`
		Headers []string            `json:"headers"`
		Rows    []map[string]string `json:"rows"`
	}
	d := doc{Title: t.Title, Headers: t.Headers, Rows: make([]map[string]string, 0, len(t.Rows))}
	for _, row := range t.Rows {
		obj := make(map[string]string, len(row))
		for i, cell := range row {
			key := fmt.Sprintf("col%d", i)
			if i < len(t.Headers) {
				key = t.Headers[i]
			}
			obj[key] = cell
		}
		d.Rows = append(d.Rows, obj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

func (t *Table) columnWidths() []int {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	return widths
}

func (t *Table) renderText(w io.Writer) error {
	widths := t.columnWidths()
	if t.Title != "" {
		if _, err := fmt.Fprintln(w, t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if total > 2 {
		total -= 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) renderMarkdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Headers, " | ")); err != nil {
		return err
	}
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	return nil
}

// Matrix renders a 2D value grid (such as Table III's per-core map) with row
// and column indices, in the given cell format (e.g. "%.4f").
func Matrix(title string, values [][]float64, cellFormat string) *Table {
	if len(values) == 0 {
		return New(title, "y\\x")
	}
	headers := make([]string, len(values[0])+1)
	headers[0] = "y\\x"
	for x := range values[0] {
		headers[x+1] = fmt.Sprintf("%d", x)
	}
	t := New(title, headers...)
	for y, row := range values {
		cells := make([]string, len(row)+1)
		cells[0] = fmt.Sprintf("%d", y)
		for x, v := range row {
			cells[x+1] = fmt.Sprintf(cellFormat, v)
		}
		t.AddRow(cells...)
	}
	return t
}

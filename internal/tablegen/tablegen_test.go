package tablegen

import (
	"encoding/json"
	"strings"
	"testing"
)

func sample() *Table {
	t := New("Sample", "name", "value")
	t.AddRow("alpha", "1")
	t.AddRow("beta", "2.5")
	return t
}

func TestFormatString(t *testing.T) {
	if FormatText.String() != "text" || FormatCSV.String() != "csv" || FormatMarkdown.String() != "markdown" || FormatJSON.String() != "json" {
		t.Error("format names wrong")
	}
	if Format(9).String() != "Format(9)" {
		t.Error("unknown format string")
	}
}

func TestParseFormat(t *testing.T) {
	cases := map[string]Format{
		"text": FormatText, "txt": FormatText, "": FormatText,
		"csv": FormatCSV, "CSV": FormatCSV,
		"markdown": FormatMarkdown, "md": FormatMarkdown,
		"json": FormatJSON, "JSON": FormatJSON,
	}
	for in, want := range cases {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("unknown format should fail")
	}
}

// RenderString renders the table to a string in the given format.
func (t *Table) RenderString(f Format) string {
	var b strings.Builder
	_ = t.Render(&b, f) // strings.Builder writes never fail
	return b.String()
}

func TestRenderText(t *testing.T) {
	out := sample().RenderString(FormatText)
	if !strings.Contains(out, "Sample") || !strings.Contains(out, "alpha") {
		t.Errorf("text output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("text output has %d lines:\n%s", len(lines), out)
	}
	// Columns must be aligned: "name " padded to width of "alpha".
	if !strings.HasPrefix(lines[1], "name ") {
		t.Errorf("header not padded: %q", lines[1])
	}
}

func TestRenderCSV(t *testing.T) {
	out := sample().RenderString(FormatCSV)
	want := "name,value\nalpha,1\nbeta,2.5\n"
	if out != want {
		t.Errorf("csv output = %q, want %q", out, want)
	}
}

func TestRenderCSVEscaping(t *testing.T) {
	tbl := New("", "a", "b")
	tbl.AddRow(`va"l,ue`, "plain")
	out := tbl.RenderString(FormatCSV)
	if !strings.Contains(out, `"va""l,ue"`) {
		t.Errorf("csv escaping wrong: %q", out)
	}
}

func TestRenderMarkdown(t *testing.T) {
	out := sample().RenderString(FormatMarkdown)
	if !strings.Contains(out, "### Sample") {
		t.Errorf("markdown missing title: %q", out)
	}
	if !strings.Contains(out, "| name | value |") || !strings.Contains(out, "| --- | --- |") {
		t.Errorf("markdown table malformed: %q", out)
	}
	if !strings.Contains(out, "| alpha | 1 |") {
		t.Errorf("markdown row missing: %q", out)
	}
}

func TestRenderJSON(t *testing.T) {
	out := sample().RenderString(FormatJSON)
	var doc struct {
		Title   string              `json:"title"`
		Headers []string            `json:"headers"`
		Rows    []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("FormatJSON emitted invalid JSON: %v\n%s", err, out)
	}
	if doc.Title != "Sample" || len(doc.Headers) != 2 || len(doc.Rows) != 2 {
		t.Errorf("json document malformed: %+v", doc)
	}
	if doc.Rows[0]["name"] != "alpha" || doc.Rows[1]["value"] != "2.5" {
		t.Errorf("json rows not keyed by header: %+v", doc.Rows)
	}
}

func TestRenderJSONExtraCells(t *testing.T) {
	tbl := &Table{Headers: []string{"a"}, Rows: [][]string{{"1", "overflow"}}}
	out := tbl.RenderString(FormatJSON)
	var doc struct {
		Rows []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Rows[0]["a"] != "1" || doc.Rows[0]["col1"] != "overflow" {
		t.Errorf("extra cells should land under positional keys: %+v", doc.Rows)
	}
}

func TestRenderUnknownFormat(t *testing.T) {
	var b strings.Builder
	if err := sample().Render(&b, Format(42)); err == nil {
		t.Error("unknown format should fail")
	}
}

func TestAddRowPadsAndTruncates(t *testing.T) {
	tbl := New("", "a", "b")
	tbl.AddRow("only")
	tbl.AddRow("x", "y", "z")
	if len(tbl.Rows[0]) != 2 || tbl.Rows[0][1] != "" {
		t.Errorf("short row not padded: %v", tbl.Rows[0])
	}
	if len(tbl.Rows[1]) != 2 {
		t.Errorf("long row not truncated: %v", tbl.Rows[1])
	}
}

func TestMatrix(t *testing.T) {
	m := Matrix("Grid", [][]float64{{1.5, 2}, {0.25, 3}}, "%.2f")
	out := m.RenderString(FormatText)
	if !strings.Contains(out, "1.50") || !strings.Contains(out, "0.25") {
		t.Errorf("matrix output missing values:\n%s", out)
	}
	if len(m.Headers) != 3 || m.Headers[0] != "y\\x" {
		t.Errorf("matrix headers = %v", m.Headers)
	}
	empty := Matrix("Empty", nil, "%.1f")
	if len(empty.Headers) != 1 || len(empty.Rows) != 0 {
		t.Error("empty matrix malformed")
	}
}

func TestTitleOmittedWhenEmpty(t *testing.T) {
	tbl := New("", "a")
	tbl.AddRow("1")
	if strings.HasPrefix(tbl.RenderString(FormatMarkdown), "###") {
		t.Error("markdown should omit empty title")
	}
	text := tbl.RenderString(FormatText)
	if strings.HasPrefix(text, "\n") {
		t.Error("text should not start with a blank title line")
	}
}

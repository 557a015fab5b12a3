package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllExperimentsReproduce runs the full harness: every experiment must
// complete and report REPRODUCED. This is the repository's top-level
// regression test for the paper's results.
func TestAllExperimentsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness")
	}
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 11 {
		t.Fatalf("got %d tables, want 11", len(tables))
	}
	for _, table := range tables {
		if table.Failed() {
			t.Errorf("%s (%s): %s", table.ID, table.Title, table.Verdict)
		}
		if len(table.Rows) == 0 {
			t.Errorf("%s: no rows", table.ID)
		}
		for i, row := range table.Rows {
			if len(row) != len(table.Columns) {
				t.Errorf("%s row %d: %d cells for %d columns", table.ID, i, len(row), len(table.Columns))
			}
		}
	}
}

func TestMarkdownRendering(t *testing.T) {
	tables := []*Table{{
		ID:          "EX",
		Title:       "Example",
		PaperClaim:  "claim",
		Expectation: "shape",
		Columns:     []string{"a", "b"},
		Rows:        [][]string{{"1", "2"}},
		Verdict:     "REPRODUCED — fine",
	}}
	md := Markdown(tables)
	for _, want := range []string{"## EX — Example", "| a | b |", "|---|---|", "| 1 | 2 |", "REPRODUCED"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestVerdictHelpers(t *testing.T) {
	if got := verdict(true, "x"); got != "REPRODUCED — x" {
		t.Errorf("verdict(true) = %q", got)
	}
	if got := verdict(false, "x"); got != "FAILED — x" {
		t.Errorf("verdict(false) = %q", got)
	}
	if (&Table{Verdict: "FAILED — x"}).Failed() == false {
		t.Error("Failed() missed a failure")
	}
	if (&Table{Verdict: "REPRODUCED — x"}).Failed() {
		t.Error("Failed() false positive")
	}
	if yn(true) != "yes" || yn(false) != "NO" {
		t.Error("yn broken")
	}
}

// TestE8AdversaryFindsCounterexample pins the E8 counterexample details.
func TestE8AdversaryFindsCounterexample(t *testing.T) {
	table, err := E8()
	if err != nil {
		t.Fatal(err)
	}
	if table.Failed() {
		t.Fatal(table.Verdict)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	if table.Rows[0][3] != "yes" {
		t.Errorf("with-registers agreement = %q", table.Rows[0][3])
	}
	if table.Rows[1][3] != "NO" {
		t.Errorf("without-registers agreement = %q", table.Rows[1][3])
	}
}

// TestE2E9Golden pins the computed part of E2 and E9 — columns, rows and
// verdict — byte for byte against testdata/{e2,e9}.golden, which
// scripts/genparity writes. Both experiments check concurrent histories
// recorded by package stress; the goldens hold their verdicts fixed.
func TestE2E9Golden(t *testing.T) {
	for name, run := range map[string]func() (*Table, error){"e2": E2, "e9": E9} {
		t.Run(name, func(t *testing.T) {
			table, err := run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(struct {
				Columns []string   `json:"columns"`
				Rows    [][]string `json:"rows"`
				Verdict string     `json:"verdict"`
			}{table.Columns, table.Rows, table.Verdict}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from its golden:\n got:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}

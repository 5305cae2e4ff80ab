package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// tinyOptions keeps experiment tests fast.
func tinyOptions() Options {
	return Options{Duration: 2500, Warmup: 200, Replications: 1, Seed: 3}
}

// tableDigests pins every experiment's output at tinyOptions: the
// SHA-256 of its Text() followed by its CSV(). A refactor of the
// experiment pipeline must leave each one unchanged; a deliberate change
// to an experiment's configuration or rendering updates its digest.
var tableDigests = map[string]string{
	"fig5":       "37d5fb1617e4217582d2bc77234919e692737a660a223e04c77348362061b5ef",
	"fig6":       "c044339ed4f59742c3acf77670170b4a0d43ca4bcfeee3b30176682955812fd8",
	"fig7":       "a1f01823bc514f43f3e5d4f37cfb2f0b700bfd8fbc18fbe412fd13dfaf517c54",
	"fig9":       "bc3e6505977ee935c238b761767c7098f537247e8c340d4f7c931ce1b4d0f751",
	"fig10a":     "fc6f83e606002c20166729b938a7a453ee6c70aa4d0ef57812b95bbea49352ca",
	"fig10b":     "7de99c82bdd61a424a189bd70ade0b773d7085b24a5950412c2b4fdbcc8cb160",
	"fig11":      "d26884243c307c2141e05fc9c0713a663a1ecc7eba70f6b445fb675eeca9de9e",
	"localabort": "eef6ddfc7f2fd35fd8b675152b273636545070a3a8941f460dea00a4ff1d6a6b",
	"fig12":      "962fcfa9d12cb53a5b922a46bcedfcd9da44151b1d51546c84089c24ef1b007f",
	"fig15":      "545db6d287efb89e0d7643488ae9b99b6473739bdb8b38bf2dc409723ae9930f",
	"ssp":        "e1c0de7679ab05c62514a0763df5e9831e6415d1279e37ddacae42e912adb7fb",
	"pexerr":     "5c7196a564c33908c1f91d1d5d132d32feb99b010df46af7b2970bd5330e4f44",
	"fifo":       "55054b5eb9a94c01aaa443ede986f2c668d10cb3a6399f1a4de31541c1ce1a10",
	"gfdelta":    "85b3275fbae5acbe3b9d5c7f00a414c38690911fe738bb8f571e7f5d76be78c8",
	"divnox":     "b033ed3a06687993e8c71a89b99f7f1f89d9ec91bb47295385cd28e8a9910fa2",
	"preempt":    "a9e72ac08be409259a283330109f8cb0f27fd92ba108a030d0879719f4085169",
	"policies":   "fd24d3b7f31baac65c5d0a5d959212c6f24abb06f62e50afcc9af83073fa2e27",
	"svcdist":    "e68d3c65d70a1c96a0047209ffa5e378e512dcf9b600061bbb2a19739b4888e9",
	"network":    "4d7e8ad5fa632ce3f0ce90233d563d402c47bc6c8f4de722de8b70cb6cab92fe",
	"scale":      "ebeea62116139e83e8bf0118d23426f6e1d488ac506550cf96d2ec54fdb2a6fb",
}

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(tinyOptions())
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table id = %q, want %q", tbl.ID, e.ID)
			}
			if tbl.Rows() == 0 || len(tbl.Series) == 0 {
				t.Fatalf("empty table: %d rows, %d series", tbl.Rows(), len(tbl.Series))
			}
			for i, row := range tbl.Y {
				if len(row) != len(tbl.Series) {
					t.Fatalf("row %d has %d cells, want %d", i, len(row), len(tbl.Series))
				}
				for j, v := range row {
					if v < 0 || v > 1 {
						t.Errorf("cell [%d][%d] = %v outside [0,1]", i, j, v)
					}
				}
			}
			if tbl.X != nil && len(tbl.X) != tbl.Rows() {
				t.Errorf("x length %d != rows %d", len(tbl.X), tbl.Rows())
			}
			if tbl.RowLabels != nil && len(tbl.RowLabels) != tbl.Rows() {
				t.Errorf("labels length %d != rows %d", len(tbl.RowLabels), tbl.Rows())
			}
			sum := sha256.Sum256([]byte(tbl.Text() + tbl.CSV()))
			if got := hex.EncodeToString(sum[:]); got != tableDigests[e.ID] {
				t.Errorf("output digest = %s, want %s", got, tableDigests[e.ID])
			}
		})
	}
}

func TestFindAndIDs(t *testing.T) {
	if _, ok := Find("fig5"); !ok {
		t.Error("fig5 not found")
	}
	if _, ok := Find("nope"); ok {
		t.Error("bogus id found")
	}
	ids := IDs()
	if len(ids) != len(All()) {
		t.Errorf("IDs() returned %d, want %d", len(ids), len(All()))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestTableRenderers(t *testing.T) {
	tbl := &Table{
		ID:     "demo",
		Title:  "Demo",
		XLabel: "load",
		Series: []string{"a", "b"},
		X:      []float64{0.1, 0.2},
		Y:      [][]float64{{0.01, 0.02}, {0.03, 0.04}},
		Err:    [][]float64{{0.001, 0}, {0, 0.002}},
		Notes:  []string{"a note"},
	}
	text := tbl.Text()
	for _, want := range []string{"demo", "Demo", "a note", "load", "0.0100±0.0010", "0.0400±0.0020", "0.0200"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "load,a,b\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "0.1,0.010000,0.020000") {
		t.Errorf("CSV row wrong:\n%s", csv)
	}
}

func TestTableCategoricalRender(t *testing.T) {
	tbl := &Table{
		ID: "cat", Title: "Cat", XLabel: "class",
		Series:    []string{"UD"},
		RowLabels: []string{"local", "global-n2"},
		Y:         [][]float64{{0.1}, {0.2}},
	}
	text := tbl.Text()
	if !strings.Contains(text, "local") || !strings.Contains(text, "global-n2") {
		t.Errorf("categorical labels missing:\n%s", text)
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, "global-n2,0.200000") {
		t.Errorf("categorical CSV wrong:\n%s", csv)
	}
}

func TestTable1Static(t *testing.T) {
	got := Table1()
	for _, want := range []string{
		"No Abortion", "Earliest Deadline First", "k (# of nodes)", "6",
		"load", "0.5", "frac_local", "0.75", "[1.25, 5]",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Table1 missing %q:\n%s", want, got)
		}
	}
}

func TestTable2Static(t *testing.T) {
	got := Table2()
	for _, want := range []string{"UD-UD", "UD-DIV1", "EQF-UD", "EQF-DIV1"} {
		if !strings.Contains(got, want) {
			t.Errorf("Table2 missing %q:\n%s", want, got)
		}
	}
}

func TestOptionsApply(t *testing.T) {
	o := DefaultOptions()
	cfg := BaselineConfig(o)
	if cfg.Duration != o.Duration || cfg.Warmup != o.Warmup ||
		cfg.Replications != o.Replications || cfg.Seed != o.Seed {
		t.Error("options not applied to config")
	}
	q := QuickOptions()
	if q.Duration >= o.Duration {
		t.Error("quick options should be faster than default")
	}
}

func TestTableSVG(t *testing.T) {
	tbl := &Table{
		ID: "demo", Title: "Demo", XLabel: "load",
		Series: []string{"a"},
		X:      []float64{0.1, 0.2},
		Y:      [][]float64{{0.1}, {0.2}},
	}
	svg, err := tbl.SVG()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "demo") {
		t.Errorf("bad svg:\n%.200s", svg)
	}
	cat := &Table{
		ID: "cat", Title: "Cat", XLabel: "class",
		Series:    []string{"UD"},
		RowLabels: []string{"local", "n2"},
		Y:         [][]float64{{0.1}, {0.2}},
	}
	if _, err := cat.SVG(); err != nil {
		t.Errorf("categorical svg: %v", err)
	}
}

package main

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/cli"
)

func TestCalcRuns(t *testing.T) {
	args := []string{
		"-deadline", "10", "-ssp", "EQF", "-psp", "DIV-1",
		"[[T11@0:5||T12@1:5||T13@2:5||T14@3:5||T15@4:5] T2@5:5]",
	}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCalcErrors(t *testing.T) {
	cases := [][]string{
		{},                                   // no expression
		{"-deadline", "10", "a", "b"},        // two expressions
		{"-deadline", "10", "["},             // bad expression
		{"-deadline", "0", "a@0:1"},          // deadline not after arrival
		{"-deadline", "5", "-ssp", "x", "a"}, // bad ssp
		{"-deadline", "5", "-psp", "x", "a"}, // bad psp
	}
	for i, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("case %d: expected error for %v", i, args)
		}
	}
}

func TestAnalyzeRuns(t *testing.T) {
	cases := [][]string{
		{"-analyze", "[[a@0:2||b@1:3] c@2:1]"},
		{"-analyze", "-dag", "a@0:2 b@1:3 c@2:1 ; a>b a>c b>c"},
		{"-analyze", "-dag", "-deadline", "5",
			"s@0:1 a@1:2 b@2:4 t@3:1 ; s>a:0.3 s>b:0.7 a>t b>t"},
	}
	for i, args := range cases {
		if err := run(args, io.Discard); err != nil {
			t.Errorf("case %d: %v: %v", i, args, err)
		}
	}
}

// TestAnalyzeReadmeExamples pins the full -analyze output for the
// README's task expressions: the paper's introduction example as a tree
// and the conditional DAG. Every number printed is a schedule-independent
// bound or an exact property of the expression.
func TestAnalyzeReadmeExamples(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{
			[]string{"-analyze", "-deadline", "10", "[[T11@0:5||T12@1:5||T13@2:5||T14@3:5||T15@4:5] T2@5:5]"},
			`task      [[T11@0:5 || T12@1:5 || T13@2:5 || T14@3:5 || T15@4:5] T2@5:5]
volume 30   critical path 10   vertices 6   depth 2   width 5
response lower bound (any schedule)  10
isolated upper bound (idle system)   30
relative deadline 10: not excluded by the lower bound
`,
		},
		{
			[]string{"-analyze", "-dag", "-deadline", "5", "s@0:1 a@1:2 b@2:4 t@3:1 ; s>a:0.3 s>b:0.7 a>t b>t"},
			`cond dag  s@0:1 a@1:2 b@2:4 t@3:1 ; s>a:0.3 s>b:0.7 a>t b>t
branch points 1   realizations 2

prob       volume   critical  lower bound
0.3             4          4            4
0.7             6          6            6

E[volume] 5.4   E[critical] 5.4   E[response] >= 5.4
critical path range [4, 6]   max volume 6
relative deadline 5: miss ratio >= 0.7 under every schedule
`,
		},
	} {
		var out bytes.Buffer
		if err := run(c.args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got := out.String(); got != c.want {
			t.Errorf("%v: output\n%s\nwant\n%s", c.args, got, c.want)
		}
	}
}

// TestAnalyzeErrors pins the error paths of the conditional-DAG analysis
// mode: probabilities outside (0, 1], branch vectors that do not sum to 1,
// and partially annotated branch points must all be rejected.
func TestAnalyzeErrors(t *testing.T) {
	cases := [][]string{
		{"-analyze", "-dag", "s@0:1 a@1:2 b@2:4 ; s>a:1.5 s>b:-0.5"}, // prob outside (0,1]
		{"-analyze", "-dag", "s@0:1 a@1:2 b@2:4 ; s>a:0 s>b:1"},      // zero prob
		{"-analyze", "-dag", "s@0:1 a@1:2 b@2:4 ; s>a:0.3 s>b:0.3"},  // probs sum != 1
		{"-analyze", "-dag", "s@0:1 a@1:2 b@2:4 ; s>a:0.3 s>b"},      // partial annotation
		{"-analyze", "-dag", "a@0:1 b@1:2 ; a>b a>b"},                // bad dag
		{"-analyze", "["}, // bad tree
	}
	for i, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("case %d: expected error for %v", i, args)
		}
	}
}

// TestFlagProbes: bad numeric flags are errors naming the flag.
func TestFlagProbes(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-deadline", []string{"-deadline", "nan", "a@0:1"}},
		{"-arrival", []string{"-arrival", "-1", "-deadline", "5", "a@0:1"}},
		{"-ssp", []string{"-deadline", "5", "-ssp", "x", "a@0:1"}},
		{"-psp", []string{"-deadline", "5", "-psp", "x", "a@0:1"}},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}

// FuzzParse drives the parse stage with argv built from the real flag
// names: it must never panic, and every plan it accepts must be
// complete: one parsed expression, and for deadline
// assignment both strategies and a deadline after the arrival.
func FuzzParse(f *testing.F) {
	names := flag.NewFlagSet("names", flag.ContinueOnError)
	parse(names, nil)
	f.Add([]byte("a@0:1"))
	f.Add([]byte("\x01\x03[[a@0:2||b@1:3] c@2:1]"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := flag.NewFlagSet("sdacalc", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		p, err := parse(fs, cli.Argv(names, data))
		if err != nil {
			return
		}
		exprs := 0
		for _, set := range []bool{p.root != nil, p.dag != nil, p.cond != nil} {
			if set {
				exprs++
			}
		}
		if exprs != 1 || !p.analyze && (p.ssp == nil || p.psp == nil || !p.dl.After(p.ar)) {
			t.Fatalf("accepted an incomplete plan: %+v", p)
		}
	})
}

package lint

// fixtures_test runs each analyzer over its fixture packages under
// testdata/ (a self-contained module) and matches the produced
// diagnostics against `// want "regexp"` comments, analysistest-style:
// every want must be hit and every diagnostic must be wanted, so the
// fixtures prove both that an analyzer fires on violations and that it
// stays silent on the sanctioned patterns.

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var wantPatternRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func TestFixtures(t *testing.T) {
	pkgs, err := Load("testdata", "./...")
	if err != nil {
		t.Fatal(err)
	}
	byBase := make(map[string]*Package)
	for _, p := range pkgs {
		byBase[p.BasePath] = p
	}

	cases := []struct {
		name     string
		analyzer string
		pkgs     []string
		// extra diagnostics expected by message substring instead of a
		// want comment (used where the diagnostic lands on a line that
		// cannot carry one, e.g. a directive's own line).
		extra []string
	}{
		{"workerlatch", "workerlatch", []string{"fixture/workerlatch"}, nil},
		{"walappend", "walappend", []string{"fixture/wal", "fixture/appender"}, nil},
		{"virtualtime", "virtualtime", []string{"fixture/cluster", "fixture/notvirtual", "fixture/wal"}, nil},
		{"directives", "virtualtime", []string{"fixture/sim"}, []string{"needs a reason"}},
		{"sentinelerr", "sentinelerr", []string{"fixture/storage", "fixture/app"}, nil},
		{"stripelock", "stripelock", []string{"fixture/stripe"}, nil},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := ByName(tc.analyzer)
			if a == nil {
				t.Fatalf("no analyzer %q", tc.analyzer)
			}
			var selected []*Package
			for _, path := range tc.pkgs {
				p := byBase[path]
				if p == nil {
					t.Fatalf("fixture package %s not loaded", path)
				}
				selected = append(selected, p)
			}
			checkFixture(t, selected, a, tc.extra)
		})
	}
}

type wantPat struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

func checkFixture(t *testing.T, pkgs []*Package, a *Analyzer, extra []string) {
	t.Helper()

	type lineKey struct {
		file string
		line int
	}
	wants := make(map[lineKey][]*wantPat)
	total := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, tok := range wantPatternRe.FindAllString(c.Text[idx+len("// want"):], -1) {
						pat := tok
						if pat[0] == '"' {
							if u, err := strconv.Unquote(pat); err == nil {
								pat = u
							}
						} else {
							pat = strings.Trim(pat, "`")
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
						}
						key := lineKey{pos.Filename, pos.Line}
						wants[key] = append(wants[key], &wantPat{re: re, raw: pat})
						total++
					}
				}
			}
		}
	}
	if total == 0 && len(extra) == 0 {
		t.Fatal("fixture has no want comments; the test would vacuously pass")
	}

	extraLeft := append([]string(nil), extra...)
	for _, d := range Run(pkgs, []*Analyzer{a}) {
		key := lineKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if matched {
			continue
		}
		for i, sub := range extraLeft {
			if strings.Contains(d.Message, sub) {
				extraLeft = append(extraLeft[:i], extraLeft[i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.raw)
			}
		}
	}
	for _, sub := range extraLeft {
		t.Errorf("expected a diagnostic containing %q, got none", sub)
	}
}

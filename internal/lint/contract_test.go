package lint

// contract_test keeps the prose contract in internal/blob/dispatch.go
// and the analyzer suite from drifting apart: every documented rule
// bullet in the four contract sections must name the analyzer that
// enforces it — "(enforced: blobvet/<name>)" — or carry an explicit
// manual justification — "(enforced: manual: <reason>)". A rule added
// without either fails here; an annotation naming a deleted analyzer
// fails here too.

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var contractSections = []string{
	"# Concurrency contract",
	"# Recovery and checkpoint stages",
	"# Repair and resync stages",
	"# Migration stages",
}

var enforcedRe = regexp.MustCompile(`\(enforced: ([^)]+)\)`)
var analyzerRefRe = regexp.MustCompile(`blobvet/([a-z]+)`)

func TestContractRulesAnnotated(t *testing.T) {
	src, err := os.ReadFile("../blob/dispatch.go")
	if err != nil {
		t.Fatal(err)
	}

	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}

	type bullet struct {
		section string
		line    int
		text    string
	}
	var bullets []bullet
	sectionsSeen := make(map[string]bool)

	section := ""
	var cur *bullet
	flush := func() {
		if cur != nil {
			bullets = append(bullets, *cur)
			cur = nil
		}
	}
	for i, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "package ") {
			break // end of the package doc comment
		}
		trimmed := strings.TrimPrefix(line, "//")
		switch {
		case strings.HasPrefix(trimmed, " # "):
			flush()
			heading := strings.TrimSpace(trimmed)
			section = ""
			for _, s := range contractSections {
				if heading == s {
					section = s
					sectionsSeen[s] = true
				}
			}
		case section == "":
			// outside the three governed sections
		case strings.HasPrefix(trimmed, "   - "):
			flush()
			cur = &bullet{section: section, line: i + 1, text: strings.TrimPrefix(trimmed, "   - ")}
		case cur != nil && strings.HasPrefix(trimmed, "     "):
			cur.text += " " + strings.TrimSpace(trimmed)
		default:
			flush()
		}
	}
	flush()

	for _, s := range contractSections {
		if !sectionsSeen[s] {
			t.Errorf("dispatch.go: contract section %q not found; if it was renamed, update this test and the README", s)
		}
	}
	if len(bullets) < 10 {
		t.Fatalf("parsed only %d contract bullets from dispatch.go; the parser or the doc layout changed", len(bullets))
	}

	referenced := make(map[string]bool)
	manual := 0
	for _, b := range bullets {
		m := enforcedRe.FindStringSubmatch(b.text)
		if m == nil {
			t.Errorf("dispatch.go:%d: contract rule in %q has no (enforced: ...) annotation:\n  %.120s",
				b.line, b.section, b.text)
			continue
		}
		body := m[1]
		refs := analyzerRefRe.FindAllStringSubmatch(body, -1)
		if len(refs) == 0 {
			manual++
			if !strings.HasPrefix(body, "manual: ") || len(strings.TrimPrefix(body, "manual: ")) < 10 {
				t.Errorf("dispatch.go:%d: annotation %q names no analyzer and has no manual justification", b.line, body)
			}
			continue
		}
		for _, r := range refs {
			if !known[r[1]] {
				t.Errorf("dispatch.go:%d: annotation references unknown analyzer %q", b.line, r[1])
			}
			referenced[r[1]] = true
		}
	}

	// A ratchet, not a target: the contract shrank to this when repair,
	// resync and migration became work lists over one survey and one logged
	// install (survey.go). A new rule should replace one, not pile on; lower
	// these when the contract shrinks again.
	if len(bullets) > 14 || manual > 5 {
		t.Errorf("dispatch.go contract grew to %d rules (%d manual); the budget is 14 (5 manual)", len(bullets), manual)
	}

	// The pool and lock rules are the reason this suite exists: the
	// three structural analyzers must each be carrying at least one
	// documented rule.
	for _, name := range []string{"workerlatch", "walappend", "stripelock"} {
		if !referenced[name] {
			t.Errorf("no contract rule is annotated with blobvet/%s; prose and enforcement have drifted", name)
		}
	}
}

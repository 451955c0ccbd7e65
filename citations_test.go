package janus

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// citation matches a reference to a ROADMAP item, with an optional
// sub-item (ROADMAP 8(a), ROADMAP item 5), or to a numbered DESIGN.md
// section (DESIGN.md §7, DESIGN §7).
var citation = regexp.MustCompile(`ROADMAP (?:item )?(\d+)(?:\(([a-z])\))?|DESIGN(?:\.md)? §(\d+)`)

// citationTargets is what a citation may name: ROADMAP.md's numbered
// items, open or retired, with their text, and DESIGN.md's numbered
// sections.
type citationTargets struct {
	items    map[string]string
	sections map[string]bool
}

var (
	roadmapItem   = regexp.MustCompile(`^(\d+)\. `)
	designSection = regexp.MustCompile(`^## (\d+)\. `)
)

func loadCitationTargets(t *testing.T) citationTargets {
	t.Helper()
	c := citationTargets{items: map[string]string{}, sections: map[string]bool{}}
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	// An item runs from its "n. " line through the indented and blank
	// lines after it.
	item := ""
	for _, line := range strings.Split(string(roadmap), "\n") {
		if m := roadmapItem.FindStringSubmatch(line); m != nil {
			item = m[1]
		} else if line != "" && !strings.HasPrefix(line, " ") {
			item = ""
		}
		if item != "" {
			c.items[item] += line + "\n"
		}
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(design), "\n") {
		if m := designSection.FindStringSubmatch(line); m != nil {
			c.sections[m[1]] = true
		}
	}
	if len(c.items) == 0 || len(c.sections) == 0 {
		t.Fatalf("found %d ROADMAP items and %d DESIGN.md sections", len(c.items), len(c.sections))
	}
	return c
}

// unresolved returns the citations in text that name no item, no sub-item
// of their item, or no section.
func (c citationTargets) unresolved(text string) []string {
	var bad []string
	for _, m := range citation.FindAllStringSubmatch(text, -1) {
		if m[3] != "" {
			if !c.sections[m[3]] {
				bad = append(bad, m[0])
			}
			continue
		}
		item, ok := c.items[m[1]]
		if !ok || m[2] != "" && !strings.Contains(item, "("+m[2]+")") {
			bad = append(bad, m[0])
		}
	}
	return bad
}

// livingDocs are the Markdown files at the repository's root that describe
// the system as it is. The others there are history, which cites items
// since renumbered or retired (CHANGES.md), and the paper's own material.
var livingDocs = map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true, "ROADMAP.md": true}

// TestCitationsResolve fails on a citation in a Go file or a living
// Markdown file that names no ROADMAP item or DESIGN.md section.
// benchmark/ keeps its own text; this file's table cites bogus targets on
// purpose.
func TestCitationsResolve(t *testing.T) {
	c := loadCitationTargets(t)
	for _, tc := range []struct {
		text string
		bad  []string
	}{
		{"see ROADMAP 8(a) and ROADMAP item 5", nil},
		{"retired: ROADMAP 10, DESIGN.md §8, DESIGN §11", nil},
		{"ROADMAP 99 is no item", []string{"ROADMAP 99"}},
		{"ROADMAP 8(z) is no sub-item of 8", []string{"ROADMAP 8(z)"}},
		{"DESIGN.md §42 is no section", []string{"DESIGN.md §42"}},
		{"ROADMAP item 99, DESIGN §99", []string{"ROADMAP item 99", "DESIGN §99"}},
	} {
		if got := c.unresolved(tc.text); !slices.Equal(got, tc.bad) {
			t.Errorf("unresolved(%q) = %q, want %q", tc.text, got, tc.bad)
		}
	}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case d.IsDir() && (path == ".git" || path == "benchmark"):
			return filepath.SkipDir
		case d.IsDir(), path == "citations_test.go":
			return nil
		case strings.HasSuffix(path, ".md") && filepath.Dir(path) == "." && !livingDocs[path]:
			return nil
		case !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".md"):
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for n := 1; sc.Scan(); n++ {
			for _, bad := range c.unresolved(sc.Text()) {
				t.Errorf("%s:%d: %q names no ROADMAP item or DESIGN.md section", path, n, bad)
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
}

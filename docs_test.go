package dragonfly

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents whose test and file citations must resolve.
var citedDocs = []string{"README.md", ".claude/skills/verify/SKILL.md"}

var (
	// A Go test, fuzz target or benchmark name: the prefix, then nothing
	// or a character that is not a lower-case letter (so "Benchmarks" is
	// prose).
	citedTestRE = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)(?:[A-Z0-9_][A-Za-z0-9_]*)?\b`)
	citedFileRE = regexp.MustCompile(`[A-Za-z0-9_./-]+\.go\b`)
	testFuncRE  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// TestDocsCiteExistingTestsAndFiles: every Test…/Fuzz…/Benchmark… name
// and every .go path the README and the verify skill cite names something
// that exists. A name resolves when some test function has it as a prefix,
// as `go test -run` matches it; a path is relative to the repository root.
func TestDocsCiteExistingTestsAndFiles(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
				funcs = append(funcs, string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names, files := 0, 0
	for _, doc := range citedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedTestRE.FindAllString(string(text), -1) {
			names++
			if !hasPrefixIn(funcs, name) {
				t.Errorf("%s cites %s, but no test function starts with that name", doc, name)
			}
		}
		for _, path := range citedFileRE.FindAllString(string(text), -1) {
			files++
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s cites %s: %v", doc, path, err)
			}
		}
	}
	if names == 0 || files == 0 {
		t.Fatalf("found %d cited names and %d cited files: the patterns no longer match the docs", names, files)
	}
}

func hasPrefixIn(funcs []string, name string) bool {
	for _, f := range funcs {
		if strings.HasPrefix(f, name) {
			return true
		}
	}
	return false
}

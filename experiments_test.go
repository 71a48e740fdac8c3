package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsChecked keeps EXPERIMENTS.md's claims tied to tests: every
// row E1–E16 of its Summary must name, in its "Checked by" column, at least
// one `pkg.TestName` that is declared in a _test.go file of the package
// directory called pkg under internal/. A renamed or deleted test then
// cannot silently orphan a claim.
func TestExperimentsChecked(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, summary, ok := strings.Cut(string(doc), "\n## Summary\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Summary section")
	}
	dirs := map[string][]string{} // package directory name → paths
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			dirs[d.Name()] = append(dirs[d.Name()], path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	row := regexp.MustCompile(`(?m)^\| E(\d+) \|.*\|(.*)\|$`)
	ref := regexp.MustCompile("`(\\w+)\\.(Test\\w+)`")
	checked := map[int]bool{}
	for _, m := range row.FindAllStringSubmatch(summary, -1) {
		exp, _ := strconv.Atoi(m[1])
		if exp > 16 {
			continue
		}
		checked[exp] = true
		refs := ref.FindAllStringSubmatch(m[2], -1)
		if len(refs) == 0 {
			t.Errorf("E%d: the Checked by column names no test", exp)
		}
		for _, r := range refs {
			if len(dirs[r[1]]) != 1 {
				t.Errorf("E%d: package %q matches %d directories under internal/, want 1", exp, r[1], len(dirs[r[1]]))
				continue
			}
			if !declaresTest(t, dirs[r[1]][0], r[2]) {
				t.Errorf("E%d: %s.%s is not declared in %s/*_test.go", exp, r[1], r[2], dirs[r[1]][0])
			}
		}
	}
	for exp := 1; exp <= 16; exp++ {
		if !checked[exp] {
			t.Errorf("E%d has no row in EXPERIMENTS.md's Summary", exp)
		}
	}
}

// declaresTest reports whether a _test.go file in dir declares the test
// function name.
func declaresTest(t *testing.T, dir, name string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ` + name + `\(t \*testing\.T\) \{`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if decl.Match(src) {
			return true
		}
	}
	return false
}

package repro

import (
	"go/build"
	"os"
	"regexp"
	"testing"
)

// runDocs are the documents whose run lines a reader copies into a shell.
var runDocs = []string{"README.md", ".claude/skills/verify/SKILL.md"}

var (
	goRunTarget  = regexp.MustCompile(`go run (?:-race )?\./([A-Za-z0-9_./-]+)`)
	scenarioFile = regexp.MustCompile(`scenarios/[A-Za-z0-9_.-]+\.json`)
)

// TestDocRunLinesExist holds every run line of the docs to the tree: each
// `go run ./<dir>` names a main package, and each scenarios/<name>.json
// named exists. A program or scenario deleted while a doc still points at
// it fails here.
func TestDocRunLinesExist(t *testing.T) {
	for _, doc := range runDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		runs := goRunTarget.FindAllSubmatch(text, -1)
		if len(runs) == 0 {
			t.Errorf("%s: no go run line found", doc)
		}
		for _, m := range runs {
			dir := string(m[1])
			pkg, err := build.ImportDir(dir, 0)
			if err != nil {
				t.Errorf("%s: go run ./%s: %v", doc, dir, err)
			} else if pkg.Name != "main" {
				t.Errorf("%s: go run ./%s: package %s, not main", doc, dir, pkg.Name)
			}
		}
		for _, f := range scenarioFile.FindAll(text, -1) {
			if _, err := os.Stat(string(f)); err != nil {
				t.Errorf("%s: %v", doc, err)
			}
		}
	}
}

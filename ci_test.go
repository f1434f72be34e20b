package qsrmine_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciSelector matches a -run, -bench or -fuzz argument in a workflow
// command line, quoted or not, in both "-run X" and "-run=X" forms.
// -benchtime and -fuzztime do not match: the flag name must be followed
// by "=" or a space.
var ciSelector = regexp.MustCompile(`-(?:run|bench|fuzz)(?:=|\s+)(?:'([^']*)'|"([^"]*)"|(\S+))`)

// testFunc matches a top-level function declaration in a test file.
var testFunc = regexp.MustCompile(`(?m)^func ([A-Za-z_][A-Za-z0-9_]*)\(`)

// identifier is an alternative that names a function, as opposed to a
// regular expression such as "." that selects by pattern.
var identifier = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// TestCIWorkflowNamesExist fails when a -run, -bench or -fuzz argument
// in the CI workflow names a function that no _test.go file defines.
// go test treats a stale selector as "no tests to run" and passes, so a
// renamed or deleted test would otherwise drop out of CI silently. A
// name counts as found when it is a prefix of some function name, the
// way go test's unanchored match treats it. NONE is the go test idiom
// for selecting nothing on purpose.
func TestCIWorkflowNamesExist(t *testing.T) {
	workflow, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	checked := 0
	for _, m := range ciSelector.FindAllStringSubmatch(string(workflow), -1) {
		arg := m[1] + m[2] + m[3]
		for _, name := range strings.Split(arg, "|") {
			if !identifier.MatchString(name) || name == "NONE" {
				continue
			}
			checked++
			found := false
			for _, f := range funcs {
				if strings.HasPrefix(f, name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml selects %q (in %q), but no _test.go function starts with it", name, m[0])
			}
		}
	}
	// Guard the parser itself: the workflow names far more than this.
	if checked < 10 {
		t.Fatalf("parsed only %d test names out of ci.yml; the selector pattern no longer matches the workflow", checked)
	}
}

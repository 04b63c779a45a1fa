package ft2_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFuzzSmokeCoversEveryTarget: every fuzz target in the module (bench/ is
// its own module) has a line in the Makefile's fuzz-smoke recipe that runs it
// in its own package, and every such line names a target that exists — so a
// new fuzz target cannot be left to its seed corpus alone.
func TestFuzzSmokeCoversEveryTarget(t *testing.T) {
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	var targets []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			targets = append(targets, "./"+filepath.ToSlash(filepath.Dir(path))+" "+m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("no fuzz target found")
	}

	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("the Makefile has no fuzz-smoke target")
	}
	line := regexp.MustCompile(`^\t\$\(GO\) test (\S+) -run XXX -fuzz (\w+) `)
	var smoked []string
	for _, l := range strings.Split(recipe, "\n") {
		if !strings.HasPrefix(l, "\t") {
			break // the recipe ends at its first line without a tab
		}
		if m := line.FindStringSubmatch(l); m != nil {
			smoked = append(smoked, m[1]+" "+m[2])
		}
	}

	for _, tg := range targets {
		if !slices.Contains(smoked, tg) {
			t.Errorf("fuzz target %s is not in make fuzz-smoke", tg)
		}
	}
	for _, s := range smoked {
		if !slices.Contains(targets, s) {
			t.Errorf("make fuzz-smoke runs %s, which is no fuzz target", s)
		}
	}
}

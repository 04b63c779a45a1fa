package tensor

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestKernelLedgerCoversEveryBody holds DESIGN.md §12's kernel ledger to the
// assembly in this package: every TEXT body has a row (first cell `·name`)
// and every such row names a body that exists. cpu_amd64.s's CPUID / XGETBV
// probes are not kernels and have no row. A kernel change adds or removes its
// row in the same change.
func TestKernelLedgerCoversEveryBody(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil {
		t.Fatal(err)
	}
	text := regexp.MustCompile(`(?m)^TEXT\s+·(\w+)\(SB\)`)
	var bodies []string
	for _, f := range files {
		if f == "cpu_amd64.s" {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range text.FindAllStringSubmatch(string(src), -1) {
			bodies = append(bodies, m[1])
		}
	}
	if len(bodies) == 0 {
		t.Fatal("no TEXT body found")
	}

	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, ledger, ok := strings.Cut(string(design), "\n### The kernel ledger\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"### The kernel ledger\" heading")
	}
	row := regexp.MustCompile("^\\| `·(\\w+)`")
	var rows []string
	inTable := false
	for _, line := range strings.Split(ledger, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break // the ledger is the first table under the heading
			}
			continue
		}
		inTable = true
		if m := row.FindStringSubmatch(line); m != nil {
			rows = append(rows, m[1])
		}
	}

	for _, b := range bodies {
		if !slices.Contains(rows, b) {
			t.Errorf("TEXT ·%s has no row in DESIGN.md's kernel ledger", b)
		}
	}
	for _, r := range rows {
		if !slices.Contains(bodies, r) {
			t.Errorf("kernel ledger row ·%s names no TEXT body", r)
		}
	}
}

package tensor

import (
	"math/rand"
	"runtime"
	"testing"
)

// Regression test for the pool sizing bug: the helper set was sized once at
// first parallel use, so a bench sweep that started at GOMAXPROCS=1 ran all
// later phases with a single helper. Sweeping P=1→4→1 must grow the pool at
// the P=4 phase and keep results correct at every stop.
func TestPoolResizesAcrossGOMAXPROCSSweep(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	rng := rand.New(rand.NewSource(13))
	m, k, n := 16, 32, 24
	a := New(m, k)
	b := New(n, k)
	a.RandNormal(rng, 1)
	b.RandNormal(rng, 1)
	want := New(m, n)
	matMulTRows(want, a, b, 0, m)

	check := func(phase string) {
		out := New(m, n)
		runPooled(kernelMatMulTRows, out, a, b, m, 3, runtime.GOMAXPROCS(0)-1)
		if !out.Equal(want) {
			t.Fatalf("%s: pooled result diverges from serial", phase)
		}
	}

	runtime.GOMAXPROCS(1)
	check("P=1 (first use)")
	afterP1 := poolHelperCount()
	if afterP1 < 1 {
		t.Fatalf("pool has %d helpers after first use, want >= 1", afterP1)
	}

	runtime.GOMAXPROCS(4)
	check("P=4")
	if got := poolHelperCount(); got < 3 {
		t.Fatalf("pool has %d helpers at GOMAXPROCS=4, want >= 3 (resize did not fire)", got)
	}

	runtime.GOMAXPROCS(1)
	check("P=1 (after shrink)")
	if got := poolHelperCount(); got < 3 {
		t.Fatalf("pool shrank to %d helpers; surplus helpers should stay parked", got)
	}
}

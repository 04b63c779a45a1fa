package abft_test

import (
	"fmt"
	"math/rand"

	"ft2/internal/abft"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// ExampleCheckedMatMul contrasts ABFT's located, exact repair of one corrupted
// matmul output with FT2's range restriction, which only bounds it.
func ExampleCheckedMatMul() {
	rng := rand.New(rand.NewSource(7))
	a, b := tensor.New(96, 96), tensor.New(96, 96)
	a.RandNormal(rng, 1)
	b.RandNormal(rng, 1)
	corrupt := func(m *tensor.Tensor) { m.Set(17, 23, m.At(17, 23)+30000) }

	repaired, res, _ := abft.CheckedMatMul(a, b, corrupt) // shapes agree: no error
	clean := tensor.MatMul(a, b)
	within := true
	for i, v := range clean.Data {
		within = within && v-repaired.Data[i] < abft.Tolerance && repaired.Data[i]-v < abft.Tolerance
	}
	fmt.Printf("ABFT: detected=%v corrected=%v at (%d,%d), repair within %g: %v\n",
		res.Detected, res.Corrected, res.Row, res.Col, abft.Tolerance, within)

	faulty := tensor.MatMul(a, b)
	corrupt(faulty)
	lo, hi := clean.MinMax()
	st := protect.ClampCorrect(faulty.Data, protect.Bounds{Lo: lo, Hi: hi}, protect.ClipToBound, true)
	fmt.Printf("range restriction: corrected %d value(s), residual left: %v\n",
		st.OutOfBound, faulty.At(17, 23) > clean.At(17, 23))
	// Output:
	// ABFT: detected=true corrected=true at (17,23), repair within 0.001: true
	// range restriction: corrected 1 value(s), residual left: true
}

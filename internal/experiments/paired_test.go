package experiments

import (
	"math"
	"testing"
)

// samples builds n per-pair timings of a true 1.05 : 1.00 cost, pair i
// running a first when i is even; second distorts whichever side ran second.
func samples(n int, second func(float64) float64) (t [2][]float64) {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			t[0], t[1] = append(t[0], 1.05), append(t[1], second(1.0))
		} else {
			t[0], t[1] = append(t[0], second(1.05)), append(t[1], 1.0)
		}
	}
	return t
}

func TestReduce(t *testing.T) {
	same := func(v float64) float64 { return v }
	outlier := samples(10, same)
	outlier[0][3] *= 10
	noCheck := math.NaN()

	for _, tc := range []struct {
		name       string
		t          [2][]float64 // seconds of a, of b
		ratio, tol float64
		spread     float64 // NaN: not checked
	}{
		{"no noise", samples(8, same), 1.05, 1e-12, 0},
		{"second runner 10% slower cancels exactly",
			samples(8, func(v float64) float64 { return v * 1.1 }), 1.05, 1e-12, noCheck},
		{"second runner pays +0.1 cancels to second order",
			samples(8, func(v float64) float64 { return v + 0.1 }), 1.05, 0.003, noCheck},
		{"one 10x outlier pair does not move the median", outlier, 1.05, 1e-12, 0},
		{"spread is the inter-quartile distance of the per-pair ratios",
			[2][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9}, {1, 1, 1, 1, 1, 1, 1, 1, 1}}, 5, 1e-12, 7 - 3},
	} {
		got := reduce(tc.t[0], tc.t[1])
		if math.Abs(got.Ratio-tc.ratio) > tc.tol {
			t.Errorf("%s: ratio %.6f, want %.6f ± %g", tc.name, got.Ratio, tc.ratio, tc.tol)
		}
		if !math.IsNaN(tc.spread) && math.Abs(got.Spread-tc.spread) > 1e-12 {
			t.Errorf("%s: spread %.6f, want %.6f", tc.name, got.Spread, tc.spread)
		}
	}
}

// TestPairAlternatesOrder checks that Pair runs b first in odd pairs.
func TestPairAlternatesOrder(t *testing.T) {
	var order []byte
	Pair(4, func() { order = append(order, 'a') }, func() { order = append(order, 'b') })
	if string(order) != "abbaabba" {
		t.Errorf("call order %q, want abbaabba", order)
	}
}

package experiments

import (
	"math"
	"sort"
	"time"
)

// Paired is the cost of a relative to b, measured back to back.
type Paired struct {
	// Ratio is time(a) / time(b): the median of the per-pair ratios of each
	// run order, the two orders combined by geometric mean, so a cost that
	// falls on whichever side runs second cancels.
	Ratio float64
	// Spread is the inter-quartile distance of all per-pair ratios.
	Spread float64
}

// Pair is the one place outside bench/ that turns two wall-clock
// measurements into a ratio. It calls a and b once per pair, alternating
// which goes first, so drift that moves both sides of a pair cancels in the
// pair's ratio. Callers warm both sides up beforehand and pass an even count.
func Pair(pairs int, a, b func()) Paired {
	timed := func(f func()) float64 {
		start := time.Now()
		f()
		return time.Since(start).Seconds()
	}
	ta, tb := make([]float64, pairs), make([]float64, pairs)
	for i := range ta {
		if i%2 == 0 {
			ta[i], tb[i] = timed(a), timed(b)
		} else {
			tb[i], ta[i] = timed(b), timed(a)
		}
	}
	return reduce(ta, tb)
}

// reduce is Pair's estimator over per-pair seconds; pair i ran a first when i
// is even.
func reduce(ta, tb []float64) Paired {
	var all []float64
	var byOrder [2][]float64
	for i := range ta {
		r := ta[i] / tb[i]
		all = append(all, r)
		byOrder[i%2] = append(byOrder[i%2], r)
	}
	ratio := quantile(byOrder[0], 0.5)
	if len(byOrder[1]) > 0 {
		ratio = math.Sqrt(ratio * quantile(byOrder[1], 0.5))
	}
	return Paired{Ratio: ratio, Spread: quantile(all, 0.75) - quantile(all, 0.25)}
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// OverheadPct renders the ratio the way the paper quotes cost: percent over
// b, with the spread in the same unit.
func (p Paired) OverheadPct() (pct, spread float64) {
	return (p.Ratio - 1) * 100, p.Spread * 100
}

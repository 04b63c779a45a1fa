package tensor

import "testing"

func init() {
	dotFMA = func(a, b []float32) float32 {
		if len(a) == 0 {
			return 0
		}
		b = b[:len(a)]
		return dotVecFMA(&a[0], &b[0], len(a))
	}
}

// GODEBUG's cpu fields apply left to right; only avx and fma reach math.Exp.
func TestGodebugKeepsMathFMA(t *testing.T) {
	for godebug, want := range map[string]bool{
		"":                           true,
		"cpu.avx2=off,cpu.sse41=off": true,
		"cpu.fma=off":                false,
		"gctrace=1,cpu.avx=off":      false,
		"cpu.all=off":                false,
		"cpu.all=off,cpu.avx=on":     false,
		"cpu.all=off,cpu.all=on":     true,
		"cpu.fma=off,cpu.fma=on":     true,
		"cpu.fma=no":                 true,
	} {
		if got := godebugKeepsMathFMA(godebug); got != want {
			t.Errorf("GODEBUG=%q: got %v, want %v", godebug, got, want)
		}
	}
}

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

// GODEBUG's cpu fields apply left to right; only avx and fma reach math.Exp,
// and only avx512f (or all) reaches the ZMM sweep.
func TestGodebugKeepsMathFMA(t *testing.T) {
	for godebug, want := range map[string]struct{ fma, avx512f bool }{
		"":                                  {true, true},
		"cpu.avx2=off,cpu.sse41=off":        {true, true},
		"cpu.fma=off":                       {false, true},
		"gctrace=1,cpu.avx=off":             {false, true},
		"cpu.all=off":                       {false, false},
		"cpu.all=off,cpu.avx=on":            {false, false},
		"cpu.all=off,cpu.all=on":            {true, true},
		"cpu.fma=off,cpu.fma=on":            {true, true},
		"cpu.fma=no":                        {true, true},
		"cpu.avx512f=off":                   {true, false},
		"cpu.avx512f=off,cpu.avx512f=on":    {true, true},
		"cpu.avx512bw=off,cpu.avx512vl=off": {true, true},
		"cpu.all=off,cpu.avx512f=on":        {false, true},
		"cpu.avx512f=off,cpu.all=on":        {true, true},
		"cpu.avx512f=no,gctrace=1":          {true, true},
		"cpu.avx512f=off,cpu.fma=off,x=1":   {false, false},
	} {
		if got := godebugKeepsMathFMA(godebug); got != want.fma {
			t.Errorf("GODEBUG=%q: math FMA %v, want %v", godebug, got, want.fma)
		}
		if got := godebugCPUOn(godebug, "avx512f"); got != want.avx512f {
			t.Errorf("GODEBUG=%q: avx512f %v, want %v", godebug, got, want.avx512f)
		}
	}
}

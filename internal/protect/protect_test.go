package protect

import (
	"math"
	"testing"
	"testing/quick"

	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

func TestBoundsContains(t *testing.T) {
	b := Bounds{-2, 3}
	for v, want := range map[float32]bool{
		-2: true, 3: true, 0: true, -2.1: false, 3.1: false,
		float32(math.NaN()):  false,
		float32(math.Inf(1)): false,
	} {
		if got := b.Contains(v); got != want {
			t.Errorf("Contains(%g) = %v, want %v", v, got, want)
		}
	}
}

func TestBoundsScaleWidens(t *testing.T) {
	cases := []struct {
		in   Bounds
		want Bounds
	}{
		{Bounds{-2, 3}, Bounds{-4, 6}},
		{Bounds{1, 3}, Bounds{0.5, 6}},     // positive lo divides
		{Bounds{-3, -1}, Bounds{-6, -0.5}}, // negative hi divides
		{Bounds{0, 0}, Bounds{0, 0}},
	}
	for _, c := range cases {
		if got := c.in.Scale(2); got != c.want {
			t.Errorf("Scale(2) of %v = %v, want %v", c.in, got, c.want)
		}
	}
}

// Property: scaling by s >= 1 never shrinks the interval.
func TestBoundsScaleNeverShrinks(t *testing.T) {
	f := func(lo, hi float32, sRaw uint8) bool {
		if math.IsNaN(float64(lo)) || math.IsNaN(float64(hi)) || lo > hi {
			return true
		}
		s := 1 + float32(sRaw)/32
		out := Bounds{lo, hi}.Scale(s)
		return out.Lo <= lo && out.Hi >= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundsWiden(t *testing.T) {
	got := Bounds{-1, 2}.Widen(Bounds{-3, 1})
	if got != (Bounds{-3, 2}) {
		t.Errorf("Widen = %v", got)
	}
}

func TestStoreObserve(t *testing.T) {
	s := NewStore()
	k := SiteKey{Layer: model.LayerRef{Block: 0, Kind: model.VProj}, Site: model.SiteLinearOut}
	s.Observe(k, tensor.FromSlice(1, 4, []float32{1, -3, 2, 0}))
	b, ok := s.Get(k)
	if !ok || b != (Bounds{-3, 2}) {
		t.Fatalf("Observe bounds = %v ok=%v", b, ok)
	}
	// Second observation widens.
	s.Observe(k, tensor.FromSlice(1, 2, []float32{5, -1}))
	b, _ = s.Get(k)
	if b != (Bounds{-3, 5}) {
		t.Errorf("widened bounds = %v", b)
	}
	// NaN and Inf are skipped.
	s.Observe(k, tensor.FromSlice(1, 2, []float32{float32(math.NaN()), float32(math.Inf(1))}))
	b, _ = s.Get(k)
	if b != (Bounds{-3, 5}) {
		t.Errorf("NaN/Inf must not widen bounds: %v", b)
	}
}

func TestStoreObserveAllNaN(t *testing.T) {
	s := NewStore()
	k := SiteKey{Layer: model.LayerRef{Block: 0, Kind: model.VProj}, Site: model.SiteLinearOut}
	s.Observe(k, tensor.FromSlice(1, 1, []float32{float32(math.NaN())}))
	if _, ok := s.Get(k); ok {
		t.Error("all-NaN observation must not create bounds")
	}
}

func TestStoreResetAndLen(t *testing.T) {
	s := NewStore()
	k := SiteKey{Layer: model.LayerRef{Block: 1, Kind: model.FC2}, Site: model.SiteLinearOut}
	s.Set(k, Bounds{-1, 1})
	if s.Len() != 1 {
		t.Error("Len after Set")
	}
	s.Reset()
	if s.Len() != 0 {
		t.Error("Reset must clear")
	}
}

func TestStoreMemoryBytes(t *testing.T) {
	s := NewStore()
	for i := 0; i < 72; i++ {
		s.Set(SiteKey{Layer: model.LayerRef{Block: i, Kind: model.VProj}}, Bounds{-1, 1})
	}
	// 72 layers × 2 values × 2 bytes (fp16) = 288 — the paper's lower bound.
	if got := s.MemoryBytes(numerics.FP16); got != 288 {
		t.Errorf("MemoryBytes = %d, want 288", got)
	}
	if got := s.MemoryBytes(numerics.FP32); got != 576 {
		t.Errorf("MemoryBytes FP32 = %d, want 576", got)
	}
}

func TestStoreStringStable(t *testing.T) {
	s := NewStore()
	s.Set(SiteKey{Layer: model.LayerRef{Block: 1, Kind: model.FC2}}, Bounds{-1, 1})
	s.Set(SiteKey{Layer: model.LayerRef{Block: 0, Kind: model.VProj}}, Bounds{-2, 2})
	out := s.String()
	if out == "" || out != s.String() {
		t.Error("String must be stable and non-empty")
	}
}

func TestClampCorrectToBound(t *testing.T) {
	data := []float32{-5, -1, 0, 1, 5, float32(math.NaN()), float32(math.Inf(1))}
	st := ClampCorrect(data, Bounds{-2, 2}, ClipToBound, true)
	want := []float32{-2, -1, 0, 1, 2, 0, 2}
	for i, w := range want {
		if data[i] != w {
			t.Errorf("data[%d] = %g, want %g", i, data[i], w)
		}
	}
	if st.OutOfBound != 3 || st.NaN != 1 {
		t.Errorf("stats = %+v, want 3 OOB + 1 NaN", st)
	}
	if st.Total() != 4 {
		t.Error("Total wrong")
	}
}

func TestClampCorrectToZero(t *testing.T) {
	data := []float32{-5, 5, 1}
	ClampCorrect(data, Bounds{-2, 2}, ClipToZero, false)
	if data[0] != 0 || data[1] != 0 || data[2] != 1 {
		t.Errorf("ClipToZero result %v", data)
	}
}

func TestClampCorrectNaNDisabled(t *testing.T) {
	data := []float32{float32(math.NaN())}
	st := ClampCorrect(data, Bounds{-1, 1}, ClipToBound, false)
	if !math.IsNaN(float64(data[0])) || st.NaN != 0 {
		t.Error("NaN must survive when correction disabled")
	}
}

// Property: after ClampCorrect with NaN correction, every value is inside
// the bounds, and the pass is idempotent.
func TestClampCorrectProperty(t *testing.T) {
	f := func(vals []float32, lo, hi float32) bool {
		if math.IsNaN(float64(lo)) || math.IsNaN(float64(hi)) || math.IsInf(float64(lo), 0) || math.IsInf(float64(hi), 0) {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		b := Bounds{lo, hi}
		data := append([]float32(nil), vals...)
		ClampCorrect(data, b, ClipToBound, true)
		for _, v := range data {
			if !(v >= lo && v <= hi) && v != 0 {
				return false
			}
		}
		again := append([]float32(nil), data...)
		st := ClampCorrect(again, b, ClipToBound, true)
		// Idempotence: a second pass corrects only values that were clipped
		// to 0 outside [lo,hi] (possible when 0 < lo or 0 > hi from NaN
		// correction); contents must be unchanged otherwise.
		_ = st
		for i := range again {
			if again[i] != data[i] && !(data[i] == 0 && (lo > 0 || hi < 0)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorrectNaNOnly(t *testing.T) {
	data := []float32{1, float32(math.NaN()), -2, float32(math.NaN())}
	if n := CorrectNaNOnly(data); n != 2 {
		t.Errorf("corrected %d NaNs, want 2", n)
	}
	if data[1] != 0 || data[3] != 0 || data[0] != 1 || data[2] != -2 {
		t.Errorf("CorrectNaNOnly result %v", data)
	}
}

func TestClipModeString(t *testing.T) {
	if ClipToBound.String() != "clip-to-bound" || ClipToZero.String() != "clip-to-zero" {
		t.Error("ClipMode strings wrong")
	}
}

func testModel(t *testing.T) *model.Model {
	t.Helper()
	cfg, err := model.ConfigByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	return model.MustNew(cfg, 42, numerics.FP16)
}

func TestOfflineProfileCoversAllSites(t *testing.T) {
	m := testModel(t)
	prompts := [][]int{{4, 5, 6, 7}, {8, 9, 10}}
	store := OfflineProfile(m, prompts, 4)
	// Every linear site plus one activation site per block.
	wantSites := len(m.Cfg.LinearLayers()) + m.Cfg.Blocks
	if store.Len() != wantSites {
		t.Errorf("profile covers %d sites, want %d", store.Len(), wantSites)
	}
	// Profiling must remove its hook.
	if m.HookCount() != 0 {
		t.Error("OfflineProfile leaked its hook")
	}
	// Bounds must be sane (lo <= hi).
	for _, ref := range m.Cfg.LinearLayers() {
		b, ok := store.Get(SiteKey{Layer: ref, Site: model.SiteLinearOut})
		if !ok {
			t.Fatalf("no bounds for %v", ref)
		}
		if b.Lo > b.Hi {
			t.Errorf("%v: inverted bounds %v", ref, b)
		}
	}
}

func TestOfflineProfileMoreDataWidens(t *testing.T) {
	m := testModel(t)
	small := OfflineProfile(m, [][]int{{4, 5, 6}}, 3)
	big := OfflineProfile(m, [][]int{{4, 5, 6}, {20, 30, 40}, {7, 8, 9, 10, 11}}, 6)
	k := SiteKey{Layer: model.LayerRef{Block: 0, Kind: model.FC1}, Site: model.SiteLinearOut}
	bs, _ := small.Get(k)
	bb, _ := big.Get(k)
	if bb.Lo > bs.Lo || bb.Hi < bs.Hi {
		t.Errorf("larger corpus must widen bounds: small=%v big=%v", bs, bb)
	}
}

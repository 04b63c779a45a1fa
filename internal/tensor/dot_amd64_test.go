package tensor

func init() {
	dotFMA = func(a, b []float32) float32 {
		if len(a) == 0 {
			return 0
		}
		b = b[:len(a)]
		return dotVecFMA(&a[0], &b[0], len(a))
	}
}

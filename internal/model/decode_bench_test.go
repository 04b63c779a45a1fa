package model

import (
	"testing"

	"ft2/internal/numerics"
)

// BenchmarkDecodeStep measures one steady-state decode step — the unit the
// paper's runtime overhead numbers are normalized to — on each family's
// Table 2 sim config. The prompt is prefetched into the KV cache once; every
// iteration runs one DecodeStep and then rewinds the state so
// the sequence never outgrows MaxSeq.
func BenchmarkDecodeStep(b *testing.B) {
	for _, name := range []string{"opt-6.7b-sim", "gptj-6b-sim", "llama2-7b-sim"} {
		b.Run(name, func(b *testing.B) {
			cfg, err := ConfigByName(name)
			if err != nil {
				b.Fatal(err)
			}
			m := MustNew(cfg, 42, numerics.FP16)
			prompt := []int{4, 8, 15, 16, 23, 42}
			tok := m.Prefill(prompt)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.DecodeStep(tok)
				m.st.step, m.st.rows = 0, len(prompt)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
		})
	}
}

package serve

import (
	"context"
	"testing"
)

// Serving with f16 weights must still match the GenerateInto oracle
// bit-for-bit: the oracle model is built with the same WeightsF16 flag, so
// both sides multiply by the same binary16-rounded weights.
func TestServedMatchesOracleWithF16Weights(t *testing.T) {
	cfg := testConfig(t)
	cfg.WeightsF16 = true
	srv := newTestServer(t, cfg)
	if !srv.Config().WeightsF16 {
		t.Fatal("WeightsF16 lost in config resolution")
	}
	prompts := testPrompts(t, 4)
	const maxTokens = 12

	for _, protected := range []bool{false, true} {
		st := srv.RunLoad(context.Background(), LoadSpec{
			Clients: 4, Requests: 6, MaxTokens: maxTokens,
			Protected: protected, PromptFor: prompts,
		})
		if st.Failed > 0 {
			t.Fatalf("protected=%v: %d requests failed: %v", protected, st.Failed, st.Errs)
		}
		for i, res := range st.Results {
			want, _, err := Oracle(srv.Config(), prompts(i), maxTokens, protected)
			if err != nil {
				t.Fatal(err)
			}
			if !equalTokens(res.Tokens, want) {
				t.Fatalf("protected=%v request %d: served %v != oracle %v", protected, i, res.Tokens, want)
			}
		}
	}
}

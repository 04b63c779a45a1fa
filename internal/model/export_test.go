package model

// ReadoutLogits returns the logits behind the token the most recent
// Prefill/PrefillChunk/DecodeStep emitted. The slice aliases the scratch
// arena and is valid until the next forward call.
func (m *Model) ReadoutLogits() []float32 { return m.scratch.logits.Row(0) }

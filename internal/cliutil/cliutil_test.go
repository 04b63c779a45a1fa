package cliutil

import (
	"flag"
	"io"
	"testing"

	"ft2/internal/numerics"
)

// TestDTypeFlag: -dtype takes exactly fp16 and fp32; anything else is a flag
// parse error (exit 2 in the binaries), never a silent fp16.
func TestDTypeFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want numerics.DType
		ok   bool
	}{
		{nil, numerics.FP16, true},
		{[]string{"-dtype", "fp16"}, numerics.FP16, true},
		{[]string{"-dtype=fp32"}, numerics.FP32, true},
		{[]string{"-dtype", "bf16"}, 0, false},
		{[]string{"-dtype", "FP32"}, 0, false},
		{[]string{"-dtype", "f32"}, 0, false},
		{[]string{"-dtype", ""}, 0, false},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		got := RegisterDType(fs)
		err := fs.Parse(tc.args)
		if (err == nil) != tc.ok || (tc.ok && *got != tc.want) {
			t.Errorf("%v: dtype %v, err %v; want %v, ok=%v", tc.args, *got, err, tc.want, tc.ok)
		}
	}
}

package cliutil

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestPprofFlag: /debug/pprof/ answers 404 without -pprof and 200 with it,
// and the server's own routes stay reachable either way.
func TestPprofFlag(t *testing.T) {
	app := http.NewServeMux()
	app.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, http.StatusNotFound},
		{[]string{"-pprof"}, http.StatusOK},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		p := RegisterPprof(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(p.Handler(app))
		for path, want := range map[string]int{"/debug/pprof/": tc.want, "/healthz": http.StatusOK} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%v: GET %s = %d, want %d", tc.args, path, resp.StatusCode, want)
			}
		}
		ts.Close()
	}
}

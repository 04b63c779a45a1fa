// Command ft2router fronts a cluster of ft2serve workers with consistent-
// hash session placement, health checking, and live session migration:
//
//	ft2serve -model qwen2-1.5b-sim -addr 127.0.0.1:8101 -export-stride 8 &
//	ft2serve -model qwen2-1.5b-sim -addr 127.0.0.1:8102 -export-stride 8 &
//	ft2router -addr 127.0.0.1:8090 \
//	    -workers http://127.0.0.1:8101,http://127.0.0.1:8102
//	curl -s localhost:8090/v1/generate \
//	    -d '{"text":"what city hosts the museum","max_tokens":32,"protected":true}'
//
// Clients talk to the router exactly as they would to a single ft2serve;
// if the worker driving a session dies mid-generation the router resumes
// the session on a survivor from its last exported checkpoint (or from the
// prompt when no checkpoint exists yet) and the client's stream continues
// bit-identically — the migration is invisible. internal/router's
// TestKillStormReadmission holds that under a kill storm in process;
// TestRealProcessCluster here holds it for this binary, two real ft2serve
// workers and a SIGKILL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"ft2/internal/cliutil"
	"ft2/internal/router"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address (port 0 picks a free port)")
	workers := flag.String("workers", "", "comma-separated worker base URLs (e.g. http://127.0.0.1:8101,http://127.0.0.1:8102)")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "worker /healthz polling period")
	probeTimeout := flag.Duration("probe-timeout", 0, "one health probe's timeout (0 = probe interval)")
	fetchEvery := flag.Int("fetch-every", 8, "relayed tokens between checkpoint fetches per session (0 = no checkpoints; failed sessions replay from the prompt)")
	vnodes := flag.Int("vnodes", 64, "consistent-hash ring points per worker")
	base := cliutil.RegisterBase(flag.CommandLine)
	prof := cliutil.RegisterPprof(flag.CommandLine)
	flag.Parse()

	ctx, stop := base.Context()
	defer stop()

	urls := splitWorkers(*workers)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "ft2router: -workers is required (comma-separated base URLs)")
		os.Exit(2)
	}
	rt, err := router.New(router.Config{
		Workers:       urls,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FetchStride:   *fetchEvery,
		Vnodes:        *vnodes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ft2router:", err)
		os.Exit(1)
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ft2router:", err)
		os.Exit(1)
	}
	fmt.Printf("ft2router: fronting %d workers — listening on http://%s\n", len(urls), ln.Addr())

	hs := &http.Server{Handler: prof.Handler(rt.Handler())}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()

	select {
	case err := <-httpErr:
		fmt.Fprintln(os.Stderr, "ft2router:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "ft2router: shutting down...")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "ft2router:", err)
	}
	st := rt.Stats()
	fmt.Fprintf(os.Stderr, "ft2router: served %d sessions, %d migrations (%d via checkpoint), %d failed\n",
		st.Sessions, st.Migrations, st.CheckpointResumes, st.Failures)
}

func splitWorkers(s string) []string {
	var urls []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			urls = append(urls, part)
		}
	}
	return urls
}

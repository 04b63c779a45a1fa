package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"ft2/internal/serve"
)

// proc is one ft2serve or ft2router OS process on a fixed address, so a
// killed one can be started again where the router's ring expects it.
type proc struct {
	t    *testing.T
	args []string // binary, then flags
	url  string
	log  string
	cmd  *exec.Cmd
}

func startProc(t *testing.T, name, bin string, flags ...string) *proc {
	ln, err := net.Listen("tcp", "127.0.0.1:0") // reserve a free port, hand it to the child
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	p := &proc{t: t, url: "http://" + addr, log: filepath.Join(filepath.Dir(bin), name+".log"),
		args: append([]string{bin, "-addr", addr}, flags...)}
	p.start()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
		if out, _ := os.ReadFile(p.log); t.Failed() {
			t.Logf("%s log:\n%s", name, out)
		}
	})
	return p
}

func (p *proc) start() {
	logf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		p.t.Fatal(err)
	}
	defer logf.Close()
	p.cmd = exec.Command(p.args[0], p.args[1:]...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	if err := p.cmd.Start(); err != nil {
		p.t.Fatal(err)
	}
}

// sigkillAndRestart is the hard failure: no drain, no goodbye, then a new
// process at the old address, waited for on /healthz.
func (p *proc) sigkillAndRestart() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.start()
	waitFor(p.t, p.url+" healthy after restart", func() bool { return strings.HasPrefix(p.get("/healthz"), "200") })
}

// get returns "<status> <body>", or "" while nothing answers.
func (p *proc) get(path string) string {
	resp, err := http.Get(p.url + path)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return fmt.Sprintf("%d %s", resp.StatusCode, body)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// generate posts req to p and returns the streamed tokens (nil for a plain
// request) and the result; atToken runs after each streamed token is read.
func (p *proc) generate(req serve.Request, atToken func(n int)) ([]int, serve.Result) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(p.url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		p.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		msg, _ := io.ReadAll(resp.Body)
		p.t.Fatalf("session %q: status %d: %s", req.SessionID, resp.StatusCode, msg)
	}
	dec := json.NewDecoder(resp.Body)
	var res serve.Result
	if !req.Stream {
		if err := dec.Decode(&res); err != nil {
			p.t.Fatal(err)
		}
		return nil, res
	}
	var toks []int
	for {
		var l struct {
			Token  *int
			Done   bool
			Error  string
			Result *serve.Result
		}
		if err := dec.Decode(&l); err != nil || l.Error != "" {
			p.t.Fatalf("session %q: stream broke after %d tokens: %v %s", req.SessionID, len(toks), err, l.Error)
		}
		if l.Done {
			return toks, *l.Result
		}
		toks = append(toks, *l.Token)
		if atToken != nil {
			atToken(len(toks))
		}
	}
}

// TestRealProcessCluster checks what only real processes can show — the
// properties themselves are internal/serve's and internal/router's tests.
// One launch of two ft2serve workers behind an ft2router covers: flags
// reaching the component they configure; SIGKILL of the process serving a
// stream mid-generation, the client's stream equal to a calm run; a session
// parked by one process resumed by the next; SIGTERM draining to exit 0.
func TestRealProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs three OS processes")
	}
	dir := t.TempDir()
	for _, name := range []string{"ft2serve", "ft2router"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, name), "ft2/cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
	}
	const model = "qwen2-1.5b-sim"
	policy := filepath.Join(dir, "policy.json") // the file format cmd/ft2policy writes
	if err := os.WriteFile(policy, []byte(`{"version":1,"entries":[{"kind":"V_PROJ","tier":"ft2"},{"kind":"OUT_PROJ","tier":"ft2"},
		{"kind":"UP_PROJ","tier":"ft2"},{"kind":"DOWN_PROJ","tier":"abft+ft2"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	worker := func(name string) *proc {
		return startProc(t, name, filepath.Join(dir, "ft2serve"), "-model", model, "-replicas", "1",
			"-throttle", "15ms", "-export-stride", "4", "-spill-dir", filepath.Join(dir, "spill"),
			"-prefix-cache-mb", "32", "-protect-policy", policy,
			"-chaos", "-chaos-rate", "1", "-chaos-journal", filepath.Join(dir, name+".journal"))
	}
	wa, wb := worker("wa"), worker("wb")
	rt := startProc(t, "router", filepath.Join(dir, "ft2router"), "-workers", wa.url+","+wb.url,
		"-probe-interval", "100ms", "-fetch-every", "3")
	waitFor(t, "both workers in rotation", func() bool { return strings.HasPrefix(rt.get("/healthz"), "200 ok 2/2") })

	// Flag wiring: these series exist only with the cache, an abft tier, chaos on.
	if got := rt.get("/v1/models"); !strings.Contains(got, `"serving":"`+model+`"`) {
		t.Fatalf("/v1/models through the router: %s", got)
	}
	for _, series := range []string{"ft2serve_prefix_entries", "ft2serve_abft_total", "ft2serve_chaos_injected_total", "ft2serve_replicas 1\n"} {
		if got := wa.get("/metrics"); !strings.Contains(got, series) {
			t.Fatalf("worker /metrics lacks %q:\n%s", series, got)
		}
	}

	// SIGKILL the worker serving a stream; the client must not notice.
	gen := serve.Request{Dataset: "squad-sim", MaxTokens: 40, Protected: true, Stream: true, SessionID: "calm"}
	calm, calmRes := rt.generate(gen, nil)
	if len(calm) != 40 {
		t.Fatalf("calm baseline streamed %d tokens, want 40", len(calm))
	}
	gen.SessionID = "kill"
	killed, killedRes := rt.generate(gen, func(n int) {
		if n != 12 {
			return
		}
		for _, w := range []*proc{wa, wb} { // the one holding the session's checkpoint is serving it
			if strings.HasPrefix(w.get("/v1/sessions/export?id=kill"), "200") {
				w.sigkillAndRestart()
				return
			}
		}
		t.Error("no worker holds a checkpoint of the session being streamed")
	})
	if !reflect.DeepEqual(killed, calm) || !reflect.DeepEqual(killedRes.Tokens, calm) ||
		killedRes.Corrections.OutOfBound != calmRes.Corrections.OutOfBound {
		t.Fatalf("stream across a SIGKILL differs from the calm run:\n got %v (%d out-of-bound)\nwant %v (%d)",
			killed, killedRes.Corrections.OutOfBound, calm, calmRes.Corrections.OutOfBound)
	}
	if metrics := rt.get("/metrics"); strings.Contains(metrics, "ft2router_migrations_total 0\n") ||
		!strings.Contains(metrics, "ft2router_sessions_failed_total 0\n") {
		t.Fatalf("router metrics after the kill: want a migration and no failed session:\n%s", metrics)
	}

	// Spill on one process, resume on its replacement.
	park := serve.Request{Dataset: "squad-sim", MaxTokens: 10, Protected: true, SessionID: "parked"}
	_, first := wa.generate(park, nil)
	wa.sigkillAndRestart()
	_, second := wa.generate(serve.Request{Resume: true, SessionID: "parked", MaxTokens: 10}, nil)
	if got := append(first.Tokens, second.Tokens...); !reflect.DeepEqual(got, calm[:20]) || !second.Protected {
		t.Fatalf("parked + resumed = %v (protected=%v), want the calm run's first 20 tokens %v", got, second.Protected, calm[:20])
	}
	if got := wa.get("/metrics"); !strings.Contains(got, "ft2serve_sessions_restored_total 1\n") {
		t.Fatalf("restarted worker did not count the restore:\n%s", got)
	}

	// SIGTERM under fire: a chaos victim is mid-stream when the signal lands.
	toks, _ := wb.generate(serve.Request{Dataset: "squad-sim", MaxTokens: 40, Protected: true, Chaos: true, Stream: true}, func(n int) {
		if n != 1 {
			return
		}
		wb.cmd.Process.Signal(syscall.SIGTERM)
		waitFor(t, "503 from the draining worker", func() bool { return strings.HasPrefix(wb.get("/healthz"), "503") })
		body, _ := json.Marshal(park)
		resp, err := http.Post(wb.url+"/v1/generate", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		if err != nil || resp.StatusCode != 503 {
			t.Errorf("new request while draining: %v %v, want status 503", resp, err)
		}
	})
	if len(toks) != 40 {
		t.Fatalf("request in flight at SIGTERM streamed %d tokens, want 40", len(toks))
	}
	rt.cmd.Process.Signal(syscall.SIGTERM)
	for _, p := range []*proc{wb, rt} {
		if err := p.cmd.Wait(); err != nil {
			t.Fatalf("%s after SIGTERM: %v, want exit status 0", p.args[0], err)
		}
	}
	if out, _ := os.ReadFile(wb.log); !strings.Contains(string(out), "drained, exiting") {
		t.Fatalf("worker log has no drain notice:\n%s", out)
	}
	if journal, _ := os.ReadFile(filepath.Join(dir, "wb.journal")); !bytes.Contains(journal, []byte(`"kind":"inject"`)) {
		t.Fatalf("chaos journal of the drained worker records no injection:\n%s", journal)
	}
}

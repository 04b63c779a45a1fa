package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/serve"
	"ft2/internal/tokenizer"
)

// testLines are the workers' stream lines of the first 384 token ids.
var testLines = serve.TokenLines(384)

// lineReader hands a relay one line per Read, as a worker that flushes every
// token does. A relay handed a whole stream at once has not caught up before
// the stream's end, so it neither flushes nor fetches on the way.
type lineReader [][]byte

func (lr *lineReader) Read(p []byte) (int, error) {
	if len(*lr) == 0 {
		return 0, io.EOF
	}
	n := copy(p, (*lr)[0])
	if (*lr)[0] = (*lr)[0][n:]; len((*lr)[0]) == 0 {
		*lr = (*lr)[1:]
	}
	return n, nil
}

// TestRelayBytesMatchWorker: a streamed generation reads the same through the
// router as straight from a worker — every token line byte for byte, and the
// terminal line's result equal but for its two timings.
func TestRelayBytesMatchWorker(t *testing.T) {
	const maxTokens = 16
	cfg := workerConfig(t)
	cfg.ExportStride = 4
	c := newTestCluster(t, 1, cfg, Config{FetchStride: 4})
	prompt := testPrompt(t)
	get := func(base, id string) [][]byte {
		body, _ := json.Marshal(serve.Request{
			PromptTokens: prompt, MaxTokens: maxTokens, Protected: true, Stream: true, SessionID: id,
		})
		resp, err := http.Post(base+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		all, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.SplitAfter(bytes.TrimSuffix(all, []byte("\n")), []byte("\n"))
	}
	direct, relayed := get(c.workers[0].ts.URL, "direct"), get(c.front.URL, "relayed")
	if len(direct) != maxTokens+1 || len(relayed) != len(direct) {
		t.Fatalf("%d lines direct, %d relayed; want %d tokens and a terminal line", len(direct), len(relayed), maxTokens)
	}
	for i := 0; i < maxTokens; i++ {
		if !bytes.Equal(direct[i], relayed[i]) {
			t.Fatalf("line %d: worker sent %q, router %q", i, direct[i], relayed[i])
		}
	}
	terminal := func(line []byte) serve.Result {
		var l streamLine
		if err := json.Unmarshal(line, &l); err != nil || !l.Done || l.Result == nil {
			t.Fatalf("terminal line %q: %v", line, err)
		}
		l.Result.QueueMS, l.Result.GenMS = 0, 0
		return *l.Result
	}
	if d, r := terminal(direct[maxTokens]), terminal(relayed[maxTokens]); !reflect.DeepEqual(d, r) {
		t.Fatalf("terminal results differ:\n worker %+v\n router %+v", d, r)
	}
}

// TestRelayFlushesEachToken: with a worker pausing 20 ms before every step,
// each token reaches a router client on its own, ≥ 10 ms after the one
// before — the relay never holds a token back until a later one arrives.
func TestRelayFlushesEachToken(t *testing.T) {
	const maxTokens = 6
	cfg := workerConfig(t)
	cfg.StepDelay = 20 * time.Millisecond
	c := newTestCluster(t, 1, cfg, Config{})
	body, _ := json.Marshal(serve.Request{PromptTokens: testPrompt(t), MaxTokens: maxTokens, Stream: true, SessionID: "paced"})
	resp, err := http.Post(c.front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	var arrived []time.Time
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream broke after %d tokens: %v", len(arrived), err)
		}
		if _, ok := serve.TokenOf(line); !ok {
			break
		}
		arrived = append(arrived, time.Now())
	}
	if len(arrived) != maxTokens {
		t.Fatalf("%d tokens, want %d", len(arrived), maxTokens)
	}
	for i := 1; i < len(arrived); i++ {
		if gap := arrived[i].Sub(arrived[i-1]); gap < 10*time.Millisecond {
			t.Fatalf("token %d arrived %v after token %d: held back for it", i-1, gap, i)
		}
	}
}

// TestStreamEndKeepsConnections: worker and router send a stream's terminal
// line together with the stream's end, so a reader that stops at the
// terminal line — the router reading a worker, the benchmark's clients
// reading the router — finds its connection reusable. Sequential sessions
// then ride one client connection and one worker connection instead of
// dialling a new one whenever the end arrived in a later read.
func TestStreamEndKeepsConnections(t *testing.T) {
	const sessions = 8
	srv, err := serve.New(workerConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	var workerConns, clientConns atomic.Int64
	counted := func(h http.Handler, n *atomic.Int64) *httptest.Server {
		ts := httptest.NewUnstartedServer(h)
		ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				n.Add(1)
			}
		}
		ts.Start()
		return ts
	}
	wts := counted(srv.Handler(), &workerConns)
	defer wts.Close()
	rt, err := New(Config{Workers: []string{wts.URL}, ProbeInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	front := counted(rt.Handler(), &clientConns)
	defer front.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	probed := workerConns.Load()
	for i := 0; i < sessions; i++ {
		body, _ := json.Marshal(serve.Request{
			PromptTokens: testPrompt(t), MaxTokens: 8, Stream: true, SessionID: fmt.Sprint("conn-", i),
		})
		resp, err := client.Post(front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		rd := bufio.NewReader(resp.Body)
		for {
			line, err := rd.ReadBytes('\n')
			if err != nil {
				t.Fatalf("session %d broke: %v", i, err)
			}
			if _, ok := serve.TokenOf(line); !ok {
				break // the terminal line: stop here, as a relay does
			}
		}
		resp.Body.Close()
	}
	// The prober's idle connection may carry the first stream; no stream
	// needs a connection of its own after that.
	if c, w := clientConns.Load(), workerConns.Load()-probed; c != 1 || w > 1 {
		t.Fatalf("%d sessions opened %d client connections and %d worker connections, want 1 and ≤ 1",
			sessions, c, w)
	}
}

// longStream is a worker stream of 255 tokens — distinct words between
// <pad>, <bos> and <unk>, which escape to 15 bytes each — whose terminal
// line, carrying them as ids and as text, is longer than a relay's read
// buffer and does not repeat itself at that distance.
func longStream(t testing.TB) ([][]byte, serve.Result) {
	res := serve.Result{Model: "llama2-7b-sim", Protected: true, QueueMS: 1.5, GenMS: 2.5, CachedPromptRows: 7}
	var lines [][]byte
	for i := 0; i < 255; i++ {
		tok := 4 + i
		if i%4 != 3 {
			tok = []int{tokenizer.PAD, tokenizer.BOS, tokenizer.UNK}[i%3]
		}
		res.Tokens = append(res.Tokens, tok)
		lines = append(lines, testLines[tok])
	}
	res.Text = data.Vocab().Decode(res.Tokens)
	var end bytes.Buffer
	json.NewEncoder(&end).Encode(map[string]interface{}{"done": true, "result": res})
	if end.Len() <= 4096 {
		t.Fatalf("terminal line of %d bytes fits a relay's read buffer", end.Len())
	}
	return append(lines, end.Bytes()), res
}

// maxSeqStream is a worker's stream of MaxSeq tokens, the most a session
// holds, and its terminal line.
func maxSeqStream(tb testing.TB) []byte {
	cfg, err := model.ConfigByName("llama2-7b-sim")
	if err != nil {
		tb.Fatal(err)
	}
	res := serve.Result{Model: cfg.Name, Protected: true}
	var stream bytes.Buffer
	for i := range cfg.MaxSeq {
		tok := 4 + i%(len(testLines)-4)
		res.Tokens = append(res.Tokens, tok)
		stream.Write(testLines[tok])
	}
	res.Text = data.Vocab().Decode(res.Tokens)
	json.NewEncoder(&stream).Encode(map[string]interface{}{"done": true, "result": res})
	return stream.Bytes()
}

// relayAllocPerByte bounds what relaying a worker stream allocates per byte
// of it, past a constant; FuzzRelayStream holds it. A token line that is
// byte for byte the worker's is forwarded as read, 5 per byte with the
// recorder's copy; any other line is decoded and a token line re-encoded,
// about 410 bytes each, 34 per byte of the shortest, {"token":4}.
const relayAllocPerByte = 40

// allocated returns the fewest bytes fn allocates over three calls (the
// runtime's TotalAlloc): another goroutine's allocations only add to a call.
func allocated(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestLongTerminalLineRelays: a terminal line longer than the relay's read
// buffer, handed over one read at a time, finishes the session with the
// worker's result — it is not mistaken for a broken stream.
func TestLongTerminalLineRelays(t *testing.T) {
	lines, want := longStream(t)
	stream := lineReader(lines)
	rec := httptest.NewRecorder()
	rt := &Router{cfg: Config{}.withDefaults()}
	s := &session{w: rec, req: serve.Request{SessionID: "long", Stream: true}}
	if out, why := rt.relayStream(s, nil, &stream, 0); out != relayFinished {
		t.Fatalf("relay ended %v (%s), want finished", out, why)
	}
	got := bytes.SplitAfter(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
	if len(got) != len(lines) {
		t.Fatalf("relayed %d lines, want %d", len(got), len(lines))
	}
	var end streamLine
	if err := json.Unmarshal(got[len(got)-1], &end); err != nil || !end.Done || end.Result == nil {
		t.Fatalf("terminal line %.80q…: %v", got[len(got)-1], err)
	}
	if !reflect.DeepEqual(*end.Result, want) {
		t.Fatalf("relayed result %+v, want %+v", *end.Result, want)
	}
}

// FuzzRelayStream feeds arbitrary worker bytes, one line per read, through
// relayStream. It never panics; every line that is a worker's token line is
// forwarded as read; the relay ends either broken or on a terminal line it
// decoded; and when the first other line is a well-formed terminal line, it
// ends there.
func FuzzRelayStream(f *testing.F) {
	var normal []byte
	for _, tok := range []int{7, 300, 2} {
		normal = append(normal, testLines[tok]...)
	}
	f.Add(append(normal, `{"done":true,"result":{"tokens":[7,300,2]}}`+"\n"...))
	f.Add([]byte(`{"token":5,"word":"not the word"}` + "\n" + `{"done":true,"error":"deadline"}` + "\n"))
	f.Add([]byte(`{"token":00012,"word":"x"}` + "\n" + `{"token":99999999999999999999}` + "\n"))
	f.Add(testLines[3][:12])
	f.Add(append(normal, `{"done":true,"result":{"text":"`+string(bytes.Repeat([]byte("a"), 5000))+`"}}`...))
	f.Add([]byte("\n\n{}\n"))
	long, _ := longStream(f)
	f.Add(bytes.Join(long, nil))
	f.Add(maxSeqStream(f))
	rt := &Router{cfg: Config{}.withDefaults()}
	f.Fuzz(func(t *testing.T, in []byte) {
		lines := bytes.SplitAfter(in, []byte("\n"))
		var want []byte // the worker token lines before the first other line
		var first streamLine
		for _, l := range lines {
			if _, ok := serve.TokenOf(l); !ok {
				if json.Unmarshal(l, &first) != nil {
					first.Done = false
				}
				break
			}
			want = append(want, l...)
		}
		var recs [3]*httptest.ResponseRecorder // one per call of allocated's
		var streams [3]lineReader
		for i := range recs {
			recs[i], streams[i] = httptest.NewRecorder(), lineReader(append([][]byte(nil), lines...))
		}
		var out relayOutcome
		var why string
		calls := 0
		n := allocated(func() {
			out, why = rt.relayStream(&session{w: recs[calls], req: serve.Request{SessionID: "s", Stream: true}}, nil, &streams[calls], 0)
			calls++
		})
		if bound := uint64(relayAllocPerByte*len(in) + 8<<10); n > bound {
			t.Fatalf("relaying a %d-byte stream allocated %d bytes, bound %d", len(in), n, bound)
		}
		got := recs[0].Body.Bytes()
		if !bytes.HasPrefix(got, want) {
			t.Fatalf("relayed %q, want it to start with the token lines %q", got, want)
		}
		switch out {
		case relayBroken:
			if first.Done {
				t.Fatalf("broken (%s) on a well-formed terminal line", why)
			}
		case relayFinished:
			last := bytes.SplitAfter(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
			if l := last[len(last)-1]; !json.Valid(l) || len(want) == len(in) {
				t.Fatalf("finished on %q after relaying every line as a token", l)
			}
		default:
			t.Fatalf("relay ended %v (%s)", out, why)
		}
	})
}

// flushCounter counts the flushes a handler makes.
type flushCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c flushCounter) Flush() {
	c.n.Add(1)
	c.ResponseWriter.(http.Flusher).Flush()
}

func countFlushes(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(flushCounter{w, n}, r)
	})
}

// BenchmarkStreamRelay streams one protected 64-token session per iteration
// from an in-process worker through the router over loopback, as the
// cluster_relay workload's clients do (checkpoint export and fetch every 8
// tokens). It reports wall time and process-wide allocations per token, and
// the flushes the worker and the router make per token. One stream leaves
// the relay off the critical path, so its wall time is the worker's decode
// pace.
func BenchmarkStreamRelay(b *testing.B) {
	const tokens = 64
	srv, err := serve.New(serve.Config{Model: "llama2-7b-sim", Seed: 42, Replicas: 1, ExportStride: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	var workerFlushes, routerFlushes atomic.Int64
	wts := httptest.NewServer(countFlushes(srv.Handler(), &workerFlushes))
	defer wts.Close()
	rt, err := New(Config{Workers: []string{wts.URL}, FetchStride: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	if err := rt.WaitReady(context.Background()); err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(countFlushes(rt.Handler(), &routerFlushes))
	defer front.Close()
	ds, err := data.ByName("squad-sim", 1)
	if err != nil {
		b.Fatal(err)
	}
	run := func(i int) {
		body, _ := json.Marshal(serve.Request{
			PromptTokens: ds.Inputs[0].Prompt, MaxTokens: tokens, Protected: true, Stream: true,
			SessionID: fmt.Sprint("bench-", i),
		})
		resp, err := http.Post(front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		all, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || bytes.Count(all, []byte("\n")) != tokens+1 {
			b.Fatalf("stream of %d lines (%v), want %d tokens and a terminal line", bytes.Count(all, []byte("\n")), err, tokens)
		}
	}
	run(-1)
	workerFlushes.Store(0)
	routerFlushes.Store(0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	n := float64(b.N * tokens)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/token")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/n, "allocs/token")
	b.ReportMetric(float64(workerFlushes.Load())/n, "worker-flushes/token")
	b.ReportMetric(float64(routerFlushes.Load())/n, "router-flushes/token")
}

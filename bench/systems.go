package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ft2"
	"ft2/internal/router"
	"ft2/internal/serve"
)

// obs is what the caller saw of one request: when it was issued, when each
// token arrived and which token it was. Times are offsets from clock0.
type obs struct {
	issued  time.Duration
	at      []time.Duration
	toks    []int
	queueMS float64 // serve.Result.QueueMS where the system reports one
	refused int     // 429 answers before the request was admitted
	corr    int     // FT2 corrections the system reported for the request
	err     error
}

func (o *obs) reset() {
	o.at, o.toks = o.at[:0], o.toks[:0]
	o.issued, o.queueMS, o.refused, o.corr, o.err = 0, 0, 0, 0, nil
}

func (o *obs) token(tok int) {
	o.toks = append(o.toks, tok)
	o.at = append(o.at, now())
}

var clock0 = time.Now()

func now() time.Duration { return time.Since(clock0) }

// system is one assembled system under test. run executes the request list
// once, closed loop, unprotected or FT2-protected, filling out[i] for
// reqs[i]. A non-nil tracer records a span around every call into a layer.
type system interface {
	run(reqs []request, protected bool, out []obs, tr *tracer)
	close()
}

// eachRequest runs fn over every request index from `clients` closed-loop
// goroutines: a client takes its next request only when its last one is done.
func eachRequest(n, clients int, fn func(client, i int)) {
	if clients == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// engineSystem drives one session at a time through the public engine API:
// ft2.Prefill then ft2.DecodeStep, with ft2.Protect attached for protected
// blocks. No scheduler, cache or network is involved.
type engineSystem struct {
	models []*ft2.Model
}

func newEngineSystem() (system, error) {
	e := &engineSystem{}
	for _, name := range engineModels {
		cfg, err := ft2.ModelByName(name)
		if err != nil {
			return nil, err
		}
		m, err := ft2.NewModel(cfg, weightSeed, ft2.FP16)
		if err != nil {
			return nil, err
		}
		e.models = append(e.models, m)
	}
	return e, nil
}

func (e *engineSystem) close() {}

func (e *engineSystem) run(reqs []request, protected bool, out []obs, tr *tracer) {
	prot := make([]*ft2.Protector, len(e.models))
	if protected {
		for i, m := range e.models {
			prot[i] = ft2.Protect(m, ft2.DefaultOptions())
			defer prot[i].Detach()
		}
	}
	for i := range reqs {
		rq, o := &reqs[i], &out[i]
		m := e.models[rq.Model]
		o.issued = now()
		root := tr.begin("request", "bench", 0, i, 0)
		if protected {
			sp := tr.begin("core.reset", "core", root, i, 0)
			prot[rq.Model].Reset()
			tr.end(sp)
		}
		sp := tr.begin("model.prefill", "model", root, i, 0)
		tok, err := ft2.Prefill(m, rq.Prompt)
		tr.end(sp)
		if err != nil {
			o.err = err
			tr.end(root)
			continue
		}
		o.token(tok)
		for s := 1; s < rq.Out; s++ {
			sp := tr.begin("model.decode_step", "model", root, i, 0)
			tok, err = ft2.DecodeStep(m, tok)
			tr.end(sp)
			if err != nil {
				o.err = err
				break
			}
			o.token(tok)
		}
		if protected {
			st := prot[rq.Model].Stats()
			o.corr = st.OutOfBound + st.NaN + prot[rq.Model].FirstTokenNaNCount()
		}
		tr.end(root)
	}
}

// serveConfig is the in-process server of serve_mixed and
// serve_shared_prefix: defaults except the prefix cache and prefill grain.
func serveConfig() serve.Config {
	return serve.Config{Model: serveModel, Seed: weightSeed, PrefixCacheMB: 16, PrefillChunk: 64}
}

// serveSystem is an in-process serve.Server with closed-loop clients calling
// Submit and reading Session.Tokens.
type serveSystem struct {
	srv     *serve.Server
	clients int
}

func newServeSystem(clients int) (system, error) {
	srv, err := serve.New(serveConfig())
	if err != nil {
		return nil, err
	}
	return &serveSystem{srv: srv, clients: clients}, nil
}

func (s *serveSystem) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
}

func (s *serveSystem) run(reqs []request, protected bool, out []obs, tr *tracer) {
	ctx := context.Background()
	eachRequest(len(reqs), s.clients, func(c, i int) {
		rq, o := &reqs[i], &out[i]
		sreq := serve.Request{PromptTokens: rq.Prompt, MaxTokens: rq.Out, Protected: protected}
		o.issued = now()
		root := tr.begin("request", "bench", 0, i, c)
		defer tr.end(root)
		var sess *serve.Session
		for {
			sp := tr.begin("serve.submit", "serve", root, i, c)
			var err error
			sess, err = s.srv.Submit(ctx, sreq)
			tr.end(sp)
			if err == nil {
				break
			}
			if !errors.Is(err, serve.ErrQueueFull) {
				o.err = err
				return
			}
			o.refused++
			time.Sleep(2 * time.Millisecond)
		}
		sp := tr.begin("serve.first_token", "serve", root, i, c)
		for tok := range sess.Tokens() {
			if len(o.toks) == 0 {
				tr.end(sp)
				sp = tr.begin("serve.token_stream", "serve", root, i, c)
			}
			o.token(tok)
		}
		tr.end(sp)
		sp = tr.begin("serve.wait", "serve", root, i, c)
		res, err := sess.Wait(ctx)
		tr.end(sp)
		o.queueMS, o.corr, o.err = res.QueueMS, corrections(res), err
	})
}

// corrections totals the FT2 corrections a served result reports.
func corrections(res serve.Result) int {
	c := res.Corrections
	return c.OutOfBound + c.NaN + c.FirstTokenNaN
}

// clusterWorker is one in-process ft2serve worker behind a real listener.
// While dead it aborts every request, which the router cannot tell from a
// killed process; only the traced pass kills workers.
type clusterWorker struct {
	srv  *serve.Server
	ts   *httptest.Server
	dead atomic.Bool
}

func (w *clusterWorker) kill()   { w.dead.Store(true); w.ts.CloseClientConnections() }
func (w *clusterWorker) revive() { w.dead.Store(false) }

// clusterSystem is router.Router over two workers, driven by HTTP clients
// that stream /v1/generate with a session id, so checkpoint export, the wire
// envelope and the router's checkpoint fetches are all on the path.
type clusterSystem struct {
	workers []*clusterWorker
	rt      *router.Router
	front   *httptest.Server
	client  *http.Client
	clients int
}

// clusterWorkerConfig is each worker's server: one replica, checkpoint
// export every 8 tokens, no prefix cache.
func clusterWorkerConfig() serve.Config {
	return serve.Config{Model: serveModel, Seed: weightSeed, Replicas: 1, ExportStride: 8}
}

func newClusterSystem() (system, error) {
	cs := &clusterSystem{clients: 2}
	// The router places sessions by hashing worker URLs. Listener ports
	// change from run to run, so the router is given fixed names and a
	// dialer that maps them to the listeners: placement repeats exactly.
	addrs := map[string]string{}
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := serve.New(clusterWorkerConfig())
		if err != nil {
			cs.close()
			return nil, err
		}
		w := &clusterWorker{srv: srv}
		inner := srv.Handler()
		w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if w.dead.Load() {
				panic(http.ErrAbortHandler)
			}
			inner.ServeHTTP(rw, r)
		}))
		cs.workers = append(cs.workers, w)
		host := fmt.Sprintf("ft2-worker-%d", i)
		addrs[host+":80"] = w.ts.Listener.Addr().String()
		urls = append(urls, "http://"+host)
	}
	var d net.Dialer
	rt, err := router.New(router.Config{
		Workers:       urls,
		FetchStride:   8,
		ProbeInterval: 50 * time.Millisecond,
		Client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 32,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return d.DialContext(ctx, network, addrs[addr])
			},
		}},
	})
	if err != nil {
		cs.close()
		return nil, err
	}
	cs.rt = rt
	cs.front = httptest.NewServer(rt.Handler())
	cs.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cs.clients}}
	if err := cs.waitHealthy(len(cs.workers)); err != nil {
		cs.close()
		return nil, err
	}
	return cs, nil
}

// waitHealthy blocks until the router sees n healthy workers.
func (cs *clusterSystem) waitHealthy(n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for cs.rt.Stats().Healthy < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d of %d workers healthy after 10s", cs.rt.Stats().Healthy, n)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (cs *clusterSystem) close() {
	if cs.client != nil {
		cs.client.CloseIdleConnections()
	}
	if cs.front != nil {
		cs.front.Close()
	}
	if cs.rt != nil {
		cs.rt.Close()
	}
	for _, w := range cs.workers {
		w.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		w.srv.Shutdown(ctx)
		cancel()
	}
}

func (cs *clusterSystem) run(reqs []request, protected bool, out []obs, tr *tracer) {
	cs.runVia(cs.front.URL, cs.clients, reqs, protected, out, tr)
}

// runVia streams every request from base (the router, or one worker for the
// direct-to-worker comparison of the traced pass) with the given number of
// closed-loop clients.
func (cs *clusterSystem) runVia(base string, clients int, reqs []request, protected bool, out []obs, tr *tracer) {
	eachRequest(len(reqs), clients, func(c, i int) {
		o := &out[i]
		o.issued = now()
		root := tr.begin("request", "bench", 0, i, c)
		o.err = cs.stream(base, &reqs[i], protected, i, c, o, tr, root)
		tr.end(root)
	})
}

var tokenPrefix = []byte(`{"token":`)

// stream POSTs one streaming generation and records every NDJSON token line
// as it is read.
func (cs *clusterSystem) stream(base string, rq *request, protected bool, i, c int, o *obs, tr *tracer, root int) error {
	body, err := json.Marshal(serve.Request{
		PromptTokens: rq.Prompt, MaxTokens: rq.Out, Protected: protected,
		Stream: true, SessionID: "bench-" + strconv.Itoa(i),
	})
	if err != nil {
		return err
	}
	sp := tr.begin("router.post", "router", root, i, c)
	resp, err := cs.client.Post(base+"/v1/generate", "application/json", bytes.NewReader(body))
	tr.end(sp)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			o.refused++
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sp = tr.begin("router.first_token", "router", root, i, c)
	defer func() { tr.end(sp) }()
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("stream broke after %d tokens: %w", len(o.toks), err)
		}
		if bytes.HasPrefix(line, tokenPrefix) {
			rest := line[len(tokenPrefix):]
			end := bytes.IndexAny(rest, ",}")
			tok, err := strconv.Atoi(string(rest[:max(end, 0)]))
			if err != nil {
				return fmt.Errorf("bad token line %q", line)
			}
			if len(o.toks) == 0 {
				tr.end(sp)
				sp = tr.begin("router.token_stream", "router", root, i, c)
			}
			o.token(tok)
			continue
		}
		var last struct {
			Done   bool          `json:"done"`
			Error  string        `json:"error"`
			Result *serve.Result `json:"result"`
		}
		if err := json.Unmarshal(line, &last); err != nil || !last.Done {
			return fmt.Errorf("unexpected stream line %q", line)
		}
		if last.Error != "" {
			return errors.New(last.Error)
		}
		if last.Result != nil {
			o.queueMS, o.corr = last.Result.QueueMS, corrections(*last.Result)
		}
		return nil
	}
}

// oracleFunc returns the tokens a request must produce, from a serial
// GenerateInto run on a model no timed block touches.
type oracleFunc func(rq request, protected bool) ([]int, error)

func engineOracle() (oracleFunc, error) {
	sys, err := newEngineSystem()
	if err != nil {
		return nil, err
	}
	models := sys.(*engineSystem).models
	return func(rq request, protected bool) ([]int, error) {
		m := models[rq.Model]
		if !protected {
			return m.GenerateInto(nil, rq.Prompt, rq.Out), nil
		}
		p := ft2.Protect(m, ft2.DefaultOptions())
		defer p.Detach()
		return p.GenerateInto(nil, rq.Prompt, rq.Out), nil
	}, nil
}

// serveOracle is serve.Oracle on the served model; it covers the cluster
// too, whose workers differ from serveConfig only in scheduling settings.
func serveOracle() (oracleFunc, error) {
	cfg, err := serveConfig().WithDefaults()
	if err != nil {
		return nil, err
	}
	return func(rq request, protected bool) ([]int, error) {
		toks, _, err := serve.Oracle(cfg, rq.Prompt, rq.Out, protected)
		return toks, err
	}, nil
}

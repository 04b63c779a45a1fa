package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// The token ids the generators draw from: llama2-7b-sim and its siblings
// share a 384-word vocabulary whose first four ids are PAD/BOS/EOS/UNK.
const (
	tokBOS     = 1
	firstWord  = 4
	vocabSize  = 384
	maxSeq     = 256
	weightSeed = 42 // model weights are the program's, not the workload's
)

// engineModels are the three architecture families engine_decode rotates
// through (OPT-, GPT-J- and Llama-style blocks).
var engineModels = []string{"opt-6.7b-sim", "gptj-6b-sim", "llama2-7b-sim"}

// serveModel is the model behind every serving workload.
const serveModel = "llama2-7b-sim"

// request is one generation the benchmark asks of the system: the program
// sees only these token ids and counts.
type request struct {
	Prompt []int
	Out    int // tokens to generate, the first one by the prefill
	Model  int // engine_decode: index into engineModels; 0 elsewhere
}

// workload is one fixed traffic mix. Shapes (lengths, counts, order) are
// constants so that every seed costs the same arithmetic; only the token ids
// come from the seed.
type workload struct {
	name     string
	why      string
	clients  int
	requests func(seed int64) []request
	// pieces is how many equal blocks of identical shape the request list is
	// cut into. Short blocks give more of them per run and pair the two modes
	// more finely; workloads whose prefix cache must see the whole list
	// between repeats run it in one piece.
	pieces int
	build  func() (system, error)
	// oracle returns a generator of expected outputs that owns its models.
	oracle func() (oracleFunc, error)
}

var workloads = []workload{
	{
		name:     "engine_decode",
		why:      "one session through Prefill/DecodeStep on the serial m=1 path; kernels, model and FT2 hooks do all the work, no scheduler",
		clients:  1,
		requests: engineRequests,
		pieces:   10,
		build:    newEngineSystem,
		oracle:   engineOracle,
	},
	{
		name:     "serve_mixed",
		why:      "8 clients, unique long and short prompts through serve.Server; batching and mixed-phase forward dominate, prefix cache only written",
		clients:  8,
		requests: mixedRequests,
		pieces:   1,
		build:    func() (system, error) { return newServeSystem(8) },
		oracle:   serveOracle,
	},
	{
		name:     "serve_shared_prefix",
		why:      "8 clients, prompts sharing a 160-token system prompt; prefix-cache lookup/fork and FT2 bounds resume dominate, prefill almost none",
		clients:  8,
		requests: sharedPrefixRequests,
		pieces:   1,
		build:    func() (system, error) { return newServeSystem(8) },
		oracle:   serveOracle,
	},
	{
		name:     "cluster_relay",
		why:      "2 HTTP clients streaming through router.Router over two workers; HTTP framing, NDJSON relay and checkpoint traffic dominate",
		clients:  2,
		requests: clusterRequests,
		pieces:   4,
		build:    newClusterSystem,
		oracle:   serveOracle,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// prompt draws n token ids: BOS, then uniform words.
func prompt(rng *rand.Rand, n int) []int {
	p := make([]int, n)
	p[0] = tokBOS
	for i := 1; i < n; i++ {
		p[i] = firstWord + rng.Intn(vocabSize-firstWord)
	}
	return p
}

// engineRequests: 60 generations, 20 per family in rotation, each a 32-token
// prompt and 97 output tokens (one from the prefill, 96 decode steps). Run in
// ten blocks of six: two generations per family.
func engineRequests(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, 60)
	for i := range reqs {
		reqs[i] = request{Prompt: prompt(rng, 32), Out: 97, Model: i % len(engineModels)}
	}
	return reqs
}

// mixedRequests: 160 unique prompts, every fourth long (160-token prompt, 16
// out), the rest short (16-token prompt, 32/64/96 out in rotation). Only BOS
// is shared, and one pass over the list holds 18 MiB of prompt KV against a
// 16 MiB LRU cache, so the prefix cache inserts and evicts but hardly hits.
func mixedRequests(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, 160)
	short := 0
	for i := range reqs {
		if i%4 == 0 {
			reqs[i] = request{Prompt: prompt(rng, 160), Out: 16}
			continue
		}
		reqs[i] = request{Prompt: prompt(rng, 16), Out: 32 * (1 + short%3)}
		short++
	}
	return reqs
}

// sharedPrefixRequests: 160 requests over 64 distinct 176-token prompts that
// share their first 160 tokens (a system prompt), 16 output tokens each.
func sharedPrefixRequests(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	system := prompt(rng, 160)
	suffixes := make([][]int, 64)
	for i := range suffixes {
		suffixes[i] = prompt(rng, 17)[1:] // 16 words, no second BOS
	}
	reqs := make([]request, 160)
	for i := range reqs {
		p := append(append(make([]int, 0, 176), system...), suffixes[i%len(suffixes)]...)
		reqs[i] = request{Prompt: p, Out: 16}
	}
	return reqs
}

// clusterRequests: 96 unique 24-token prompts, 64 output tokens each.
func clusterRequests(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, 96)
	for i := range reqs {
		reqs[i] = request{Prompt: prompt(rng, 24), Out: 64}
	}
	return reqs
}

// listHash fingerprints a request list (FNV-64a over every field), so two
// runs can show they measured the same inputs.
func listHash(reqs []request) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, r := range reqs {
		put(len(r.Prompt))
		for _, t := range r.Prompt {
			put(t)
		}
		put(r.Out)
		put(r.Model)
	}
	return h.Sum64()
}

// outputTokens is the number of tokens one pass over the list generates.
func outputTokens(reqs []request) int {
	n := 0
	for _, r := range reqs {
		n += r.Out
	}
	return n
}

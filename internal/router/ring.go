package router

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// hashRing is a consistent-hash ring over worker indices. Each worker
// contributes vnodes points (fnv64a of "url#i"), so session placement is a
// pure function of the session id and the worker set: every router replica,
// and every restart of this one, maps the same id to the same worker. When
// the preferred worker is dead the ring yields its clockwise successors, so
// failover order is deterministic too — that is what makes the kill storm's
// "kill a worker, outputs stay bit-identical" check meaningful.
type hashRing struct {
	points  []ringPoint // sorted by hash
	workers int
}

type ringPoint struct {
	hash   uint64
	worker int
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is a 64-bit finalization mix (the MurmurHash3 fmix). Raw FNV of
// short, similar strings — session ids are exactly that — clusters in a
// narrow band of the hash space, which would pile every session onto one
// worker; the mix spreads the avalanche over all 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// newHashRing builds the ring for the given worker URLs.
func newHashRing(urls []string, vnodes int) *hashRing {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &hashRing{workers: len(urls)}
	r.points = make([]ringPoint, 0, len(urls)*vnodes)
	for w, url := range urls {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{fnv64(fmt.Sprintf("%s#%d", url, i)), w})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].worker < r.points[j].worker
	})
	return r
}

// sequence returns every worker index in ring order starting at the key's
// point — the first element is the preferred owner, the rest the failover
// order. Each worker appears exactly once.
func (r *hashRing) sequence(key string) []int {
	if len(r.points) == 0 {
		return nil
	}
	h := fnv64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seq := make([]int, 0, r.workers)
	seen := make([]bool, r.workers)
	for i := 0; i < len(r.points) && len(seq) < r.workers; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.worker] {
			seen[p.worker] = true
			seq = append(seq, p.worker)
		}
	}
	return seq
}

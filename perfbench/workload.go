package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strconv"
)

// workload is one benchmark scenario. Every figure is fixed here, and
// none is derived at run time: the open-loop rates were set once, at
// about a twentieth of the saturated qps the parent commit reached on a
// 2-vCPU host (see METRICS.md for why not more).
type workload struct {
	name      string
	transport string // "udp", "dot" or "doh"
	zone      string // "s": every answer is one A record; "m": a mix of sizes
	names     int    // distinct query names
	zipf      bool   // Zipf(s=1.0) draws instead of uniform ones
	primed    bool   // warm-up sends every name once, so measured queries all hit
	rate      float64
	window    int // closed-loop in-flight queries per connection
	// cacheBudget bounds the proxy cache in bytes (TinyLFU admission);
	// zero gives an entry-bounded cache large enough for every name.
	cacheBudget int64
	guard       bool
	redial      int // queries per DoH connection before it is replaced
	warmup      float64
}

var workloads = []workload{
	{name: "udp-hot", transport: "udp", zone: "s", names: 4096, primed: true,
		rate: 5000, window: 64, guard: true, warmup: 1},
	{name: "dot-zipf", transport: "dot", zone: "m", names: 1 << 20, zipf: true,
		rate: 2000, window: 64, cacheBudget: 2 << 20, warmup: 3},
	{name: "doh-h2", transport: "doh", zone: "m", names: 10000, zipf: true, primed: true,
		rate: 1500, window: 32, redial: 256, warmup: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Names are q<index>.<zone>.bench. — the upstream emulator derives each
// answer from the name alone, and the generator derives the answer it
// expects the same way.

func appendQName(dst []byte, idx int, zone string) []byte {
	var num [20]byte
	d := strconv.AppendInt(num[:0], int64(idx), 10)
	dst = append(dst, byte(1+len(d)), 'q')
	dst = append(dst, d...)
	dst = append(dst, byte(len(zone)))
	dst = append(dst, zone...)
	return append(dst, 5, 'b', 'e', 'n', 'c', 'h', 0)
}

// appendQuery packs a recursive A query for name idx: no EDNS, so UDP
// answers stay under 512 bytes.
func appendQuery(dst []byte, id uint16, idx int, zone string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, id)
	dst = append(dst, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0)
	dst = appendQName(dst, idx, zone)
	return append(dst, 0, 1, 0, 1)
}

// answerCount is the number of A records the emulator returns for name
// idx: zone "s" always 1 (the smallest answer), zone "m" a fixed mix of
// 1, 2, 4 and 8 records in 50/25/15/10 proportions.
func answerCount(idx int, zone string) int {
	if zone != "m" {
		return 1
	}
	switch h := mix64(uint64(idx)) % 100; {
	case h < 50:
		return 1
	case h < 75:
		return 2
	case h < 90:
		return 4
	default:
		return 8
	}
}

// answerRR is the rdata of the j-th A record of name idx.
func answerRR(idx, j int) [4]byte {
	return [4]byte{byte(idx >> 16), byte(idx >> 8), byte(idx), byte(j)}
}

// rrLen is the size of one compressed A record: pointer, type, class,
// TTL, rdlength and four octets of address.
const rrLen = 2 + 2 + 2 + 4 + 2 + 4

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// nameStream draws query-name indices from one seeded stream: uniform
// over the workload's names, or Zipf(s=1.0) by closed-form inverse CDF
// (rank k ≈ exp(u·H(N) − γ), with H(N) the N-th harmonic number).
type nameStream struct {
	rng  *rand.Rand
	n    int
	zipf bool
	hN   float64
}

const eulerGamma = 0.5772156649015329

func newNameStream(w workload, seed uint64, stream uint64) *nameStream {
	s := &nameStream{rng: rand.New(rand.NewPCG(seed, 0x6e616d65+stream)), n: w.names, zipf: w.zipf}
	if w.zipf {
		s.hN = math.Log(float64(w.names)) + eulerGamma + 1/(2*float64(w.names))
	}
	return s
}

func (s *nameStream) next() int {
	if !s.zipf {
		return s.rng.IntN(s.n)
	}
	k := int(math.Exp(s.rng.Float64()*s.hN-eulerGamma) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > s.n {
		k = s.n
	}
	return k - 1
}

// schedule yields the open-loop due times: exponential inter-arrival
// gaps at the workload's rate, as nanosecond offsets from the first.
type schedule struct {
	rng  *rand.Rand
	mean float64
	at   float64
	held bool // unread handed back the last offset
}

func newSchedule(w workload, seed uint64) *schedule {
	return &schedule{rng: rand.New(rand.NewPCG(seed, 0x73636865)), mean: 1e9 / w.rate}
}

func (s *schedule) next() int64 {
	if s.held {
		s.held = false
	} else {
		s.at += s.rng.ExpFloat64() * s.mean
	}
	return int64(s.at)
}

// unread makes the next call to next return the last offset again.
func (s *schedule) unread() { s.held = true }

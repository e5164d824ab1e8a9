package main

// Per-layer tracing for the proxy process. Nothing here reaches into
// internal/: every span comes from a wrapper around a layer's public
// interface (udpio.BatchConn, net.Conn below and above TLS, the proxy's
// dnsserver.Handler and WireResponder, h2.Handler, the Resolver that a
// dnstransport.PoolUpstream dials), installed only in traced runs.
//
// Serving-loop goroutines that block in reads (UDP shard loops, stream
// and h2 connection loops) are locked to their OS thread, and their spans
// are measured on the thread's CPU clock, so time parked in the poller is
// never charged to a layer. Spans on other goroutines (handlers, off-loop
// writes, upstream exchanges) are wall-clock.

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/h2"
	"dohcost/internal/telemetry"
	"dohcost/internal/udpio"
)

type spanKind uint8

const (
	spUDPRead       spanKind = iota // udpio ReadBatch (thread CPU)
	spUDPWrite                      // udpio WriteBatch (thread CPU)
	spUDPBatch                      // shard loop between reads (thread CPU)
	spTLSRead                       // read above TLS on a conn loop (thread CPU)
	spConnRead                      // read below TLS on a conn loop (thread CPU)
	spConnLoop                      // conn loop between reads (thread CPU)
	spTLSWriteLoop                  // write above TLS from the conn loop (thread CPU)
	spConnWriteLoop                 // write below TLS from the conn loop (thread CPU)
	spTLSWriteOff                   // write above TLS from another goroutine (wall)
	spConnWriteOff                  // write below TLS from another goroutine (wall)
	spHandshake                     // server TLS handshake (thread CPU)
	spHit                           // WireResponder.ServeDNSWire that answered (wall)
	spWireDeclined                  // ServeDNSWire that declined to the Message path (wall)
	spMiss                          // Handler.ServeDNS: cache miss path (wall)
	spExchange                      // upstream Resolver.Exchange (wall)
	spH2Handler                     // h2.Handler.ServeH2 (wall)
	spDial                          // upstream TCP dial (wall)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"udpio.read", "udpio.write", "dnsserver.udp_batch",
	"tls.read", "conn.read", "dnsserver.conn_loop",
	"tls.write_loop", "conn.write_loop", "tls.write_off", "conn.write_off",
	"tls.handshake", "dnscache.hit", "dnscache.wire_declined", "dnscache.miss",
	"dnstransport.exchange", "h2.handler", "dnstransport.dial",
}

// spanParents names each kind's enclosing span; where the parent depends
// on the transport the recorder serves, it is filled in by newRecorder.
var spanParents = [numSpanKinds]string{
	"udpio.shard", "dnsserver.udp_batch", "udpio.shard",
	"conn.loop", "tls.read", "conn.loop",
	"dnsserver.conn_loop", "tls.write_loop", "", "tls.write_off",
	"conn.loop", "", "", "", "dnscache.miss", "", "dnstransport.exchange",
}

type counterKind uint8

const (
	cntUDPDatagrams counterKind = iota
	cntConnReads
	cntConnWrites
	cntExchangeOK
	numCounters
)

var counterNames = [numCounters]string{"udpio.datagrams", "conn.reads", "conn.writes", "dnstransport.exchange_ok"}

type spanAgg struct {
	N  int64 `json:"n"`
	Ns int64 `json:"ns"`
}

// rawSpan is one recorded span. Per-query spans carry the query's DNS ID
// (the generator keeps IDs unique across its connections); loop- and
// batch-level spans serve many queries and carry ID 0.
type rawSpan struct {
	ID     uint16 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Dur    int64  `json:"dur_ns"`
	Clock  string `json:"clock"`
}

type rawSlot struct {
	id       uint16
	kind     spanKind
	cpu      bool
	start    int64
	end, dur int64
}

// maxRawSpans bounds the in-memory span log written out at exit.
const maxRawSpans = 1 << 16

type recorder struct {
	epoch    time.Time
	parents  [numSpanKinds]string
	n, ns    [numSpanKinds]atomic.Int64
	counters [numCounters]atomic.Int64
	raw      []rawSlot
	rawN     atomic.Int64
}

func newRecorder(transport string) *recorder {
	r := &recorder{epoch: time.Now(), parents: spanParents, raw: make([]rawSlot, maxRawSpans)}
	loop := map[string]string{"udp": "dnsserver.udp_batch", "dot": "dnsserver.conn_loop", "doh": "h2.handler"}[transport]
	r.parents[spHit], r.parents[spWireDeclined], r.parents[spMiss] = loop, loop, loop
	if transport == "doh" {
		r.parents[spTLSWriteOff] = "h2.handler"
	} else {
		r.parents[spTLSWriteOff] = "dnscache.miss"
	}
	return r
}

// mark is a span start: a wall timestamp, plus the thread's CPU clock
// when the span is measured on it.
type mark struct {
	wall time.Time
	cpu  int64
}

func (r *recorder) startWall() mark { return mark{wall: time.Now()} }

func (r *recorder) startCPU() mark {
	m := mark{cpu: threadCPU()}
	if r.rawN.Load() < maxRawSpans {
		m.wall = time.Now()
	}
	return m
}

func (r *recorder) endWall(k spanKind, m mark, id uint16) {
	now := time.Now()
	d := int64(now.Sub(m.wall))
	r.n[k].Add(1)
	r.ns[k].Add(d)
	r.keep(k, id, false, m.wall, now, d)
}

// endCPU closes a thread-CPU span and returns the clock reading it ended
// at, which a loop wrapper reuses as the start of the span that follows.
func (r *recorder) endCPU(k spanKind, m mark, id uint16) int64 {
	end := threadCPU()
	d := end - m.cpu
	r.n[k].Add(1)
	r.ns[k].Add(d)
	if !m.wall.IsZero() {
		r.keep(k, id, true, m.wall, time.Now(), d)
	}
	return end
}

func (r *recorder) keep(k spanKind, id uint16, cpu bool, start, end time.Time, d int64) {
	if r.rawN.Load() >= maxRawSpans {
		return
	}
	i := r.rawN.Add(1) - 1
	if i >= maxRawSpans {
		return
	}
	r.raw[i] = rawSlot{id: id, kind: k, cpu: cpu, start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch)), dur: d}
}

func (r *recorder) count(c counterKind, n int64) { r.counters[c].Add(n) }

func (r *recorder) snapshot() (map[string]spanAgg, map[string]int64) {
	spans := make(map[string]spanAgg, numSpanKinds)
	for k := range numSpanKinds {
		spans[spanNames[k]] = spanAgg{N: r.n[k].Load(), Ns: r.ns[k].Load()}
	}
	counters := make(map[string]int64, numCounters)
	for c := range numCounters {
		counters[counterNames[c]] = r.counters[c].Load()
	}
	return spans, counters
}

// writeSpans writes the recorded span log, one JSON object per line.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	n := min(r.rawN.Load(), maxRawSpans)
	for _, s := range r.raw[:n] {
		clock := "wall"
		if s.cpu {
			clock = "thread_cpu"
		}
		enc.Encode(rawSpan{ID: s.id, Name: spanNames[s.kind], Parent: r.parents[s.kind], Start: s.start, End: s.end, Dur: s.dur, Clock: clock})
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// threadCPU reads the calling thread's CPU clock. The vDSO does not serve
// CLOCK_THREAD_CPUTIME_ID, so this is a real (raw, non-blocking) syscall.
func threadCPU() int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, 3 /* CLOCK_THREAD_CPUTIME_ID */, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// lockLoop pins the calling serving-loop goroutine to its thread for the
// rest of its life and returns the thread ID.
func lockLoop() int {
	runtime.LockOSThread()
	return syscall.Gettid()
}

// tracedBatchConn wraps one UDP shard socket. ReadBatch and WriteBatch
// are the udpio syscalls; the time between one read's return and the
// next read's entry is the dnsserver batch loop around them.
type tracedBatchConn struct {
	udpio.BatchConn
	r      *recorder
	locked bool
	last   int64
}

func (c *tracedBatchConn) ReadBatch(ms []udpio.Message) (int, error) {
	if !c.locked {
		lockLoop()
		c.locked = true
	}
	m := c.r.startCPU()
	if c.last != 0 {
		d := m.cpu - c.last
		c.r.n[spUDPBatch].Add(1)
		c.r.ns[spUDPBatch].Add(d)
	}
	n, err := c.BatchConn.ReadBatch(ms)
	c.last = c.r.endCPU(spUDPRead, m, 0)
	c.r.count(cntUDPDatagrams, int64(n))
	return n, err
}

func (c *tracedBatchConn) WriteBatch(ms []udpio.Message) (int, error) {
	m := c.r.startCPU()
	n, err := c.BatchConn.WriteBatch(ms)
	c.r.endCPU(spUDPWrite, m, 0)
	return n, err
}

// loopConn wraps a stream connection on both sides of TLS: raw is the TCP
// socket under tls.Conn, and the same type wraps the tls.Conn handed to
// the serving loop. Reads only ever run on the loop goroutine; writes are
// classified by thread, since replies to cache misses (DoT) and every h2
// response are written from other goroutines.
type loopConn struct {
	net.Conn
	r     *recorder
	tid   int
	above bool // wraps the tls.Conn rather than the socket
	// handshake marks socket I/O of the TLS handshake: it is counted, but
	// its time belongs to the enclosing tls.handshake span.
	handshake bool
	last      int64
}

func (c *loopConn) Read(b []byte) (int, error) {
	if !c.above {
		c.r.count(cntConnReads, 1)
		if c.handshake {
			return c.Conn.Read(b)
		}
	}
	k := spConnRead
	if c.above {
		k = spTLSRead
	}
	m := c.r.startCPU()
	if c.above && c.last != 0 {
		c.r.n[spConnLoop].Add(1)
		c.r.ns[spConnLoop].Add(m.cpu - c.last)
	}
	n, err := c.Conn.Read(b)
	end := c.r.endCPU(k, m, 0)
	if c.above {
		c.last = end
	}
	return n, err
}

func (c *loopConn) Write(b []byte) (int, error) {
	if !c.above {
		c.r.count(cntConnWrites, 1)
		if c.handshake {
			return c.Conn.Write(b)
		}
	}
	if syscall.Gettid() == c.tid {
		k := spConnWriteLoop
		if c.above {
			k = spTLSWriteLoop
		}
		m := c.r.startCPU()
		n, err := c.Conn.Write(b)
		c.r.endCPU(k, m, 0)
		return n, err
	}
	k := spConnWriteOff
	if c.above {
		k = spTLSWriteOff
	}
	m := c.r.startWall()
	n, err := c.Conn.Write(b)
	c.r.endWall(k, m, 0)
	return n, err
}

// tracedHandler wraps the proxy's handler: ServeDNSWire is the cache's
// wire fast path (a hit when handled), ServeDNS the Message path a miss
// takes through singleflight, steering and the upstream pool.
type tracedHandler struct {
	h  dnsserver.Handler
	wr dnsserver.WireResponder
	r  *recorder
}

func (t tracedHandler) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	m := t.r.startWall()
	resp, err := t.h.ServeDNS(ctx, q)
	t.r.endWall(spMiss, m, q.ID)
	return resp, err
}

func (t tracedHandler) ServeDNSWire(tx *telemetry.Transaction, q *dnswire.Query, dst []byte, limit int) ([]byte, bool) {
	m := t.r.startWall()
	resp, ok := t.wr.ServeDNSWire(tx, q, dst, limit)
	k := spHit
	if !ok {
		k = spWireDeclined
	}
	t.r.endWall(k, m, q.ID)
	return resp, ok
}

// tracedH2 wraps the per-connection h2.Handler that dnsserver.DoH.Bind
// returns: DoH request decoding, the DNS handler and response encoding.
func (r *recorder) tracedH2(h h2.Handler) h2.Handler {
	return h2.HandlerFunc(func(req *h2.Request) *h2.Response {
		var id uint16
		if len(req.Body) >= 2 {
			id = uint16(req.Body[0])<<8 | uint16(req.Body[1])
		}
		m := r.startWall()
		resp := h.ServeH2(req)
		r.endWall(spH2Handler, m, id)
		return resp
	})
}

// tracedResolver wraps the upstream Resolver a pool slot dials.
type tracedResolver struct {
	dnstransport.Resolver
	r *recorder
}

func (t tracedResolver) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	m := t.r.startWall()
	resp, err := t.Resolver.Exchange(ctx, q)
	t.r.endWall(spExchange, m, q.ID)
	if err == nil {
		t.r.count(cntExchangeOK, 1)
	}
	return resp, err
}

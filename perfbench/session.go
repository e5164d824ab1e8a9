package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// A session is the generator's side of one proxy process: its client
// connections and the warm-up, open-loop, closed-loop and probe phases
// run over them.

// reading is a point-in-time copy of every counter a metric differences.
type reading struct {
	proxy   snapshot
	wire    int64
	emu     int64
	emuBusy int64
	genCPU  int64
	// The generator's own allocation and GC cycles, for harness health.
	genAlloc, genGC uint64
}

// session is the generator's set of client connections to one proxy.
type session struct {
	rc  runConfig
	px  *proxyProc
	emu *emulator
	udp []*udpConn
	dot []*dotConn
	doh []*dohSlot
	// loops counts the session's closed loops.
	loops int
	// openNames and sched are the open loop's seeded streams. Each
	// open-loop segment of a run continues where the previous one
	// stopped, so a run's segments together send one seeded sequence.
	openNames *nameStream
	sched     *schedule
}

// conns is the number of client connections: one per CPU, at most two.
func conns() int { return min(2, max(1, runtime.NumCPU())) }

func newSession(rc runConfig, px *proxyProc, emu *emulator) (*session, error) {
	s := &session{rc: rc, px: px, emu: emu,
		openNames: newNameStream(rc.w, rc.seed, 100), sched: newSchedule(rc.w, rc.seed)}
	w := rc.w
	switch w.transport {
	case "udp":
		if err := s.dialUDPShards(); err != nil {
			s.close()
			return nil, err
		}
	case "dot":
		for i := 0; i < conns(); i++ {
			c, err := dialDoT(px.ready.DoT, px.roots, w.zone, uint16(i)<<15)
			if err != nil {
				s.close()
				return nil, err
			}
			s.dot = append(s.dot, c)
			go c.readLoop()
		}
	case "doh":
		for i := 0; i < conns(); i++ {
			c, err := newDoHSlot(px.ready.DoH, px.roots, w.zone, uint16(i)<<15, w.redial)
			if err != nil {
				s.close()
				return nil, err
			}
			s.doh = append(s.doh, c)
		}
	}
	return s, nil
}

// dialUDPShards opens one client socket per proxy shard socket. The
// kernel spreads SO_REUSEPORT traffic by a hash of the source port, so a
// socket that lands on a shard already taken is replaced; otherwise two
// client sockets could load one shard and leave the other idle.
func (s *session) dialUDPShards() error {
	taken := map[int]bool{}
	for tries := 0; len(s.udp) < conns() && tries < 64; tries++ {
		c, err := dialUDP(s.px.ready.UDP, s.rc.w.zone, uint16(len(s.udp))<<15)
		if err != nil {
			return err
		}
		go c.readLoop()
		a, err := s.px.snap()
		if err != nil {
			c.close()
			return err
		}
		ph := &phase{}
		if err := s.exchangeAll([]sender{c}, ph, []int{0}); err != nil {
			c.close()
			return err
		}
		b, err := s.px.snap()
		if err != nil {
			c.close()
			return err
		}
		shard := -1
		for i := range b.Shards {
			if b.Shards[i].Datagrams != a.Shards[i].Datagrams {
				shard = i
			}
		}
		if taken[shard] && len(b.Shards) >= conns() {
			c.close()
			continue
		}
		taken[shard] = true
		s.udp = append(s.udp, c)
	}
	if len(s.udp) < conns() {
		return errors.New("could not place a client socket on every UDP shard")
	}
	return nil
}

func (s *session) close() {
	for _, c := range s.udp {
		c.close()
	}
	for _, c := range s.dot {
		c.close()
	}
	for _, c := range s.doh {
		c.close()
	}
}

// sender is one client connection of any transport.
type sender interface {
	send(ph *phase, qs []query) error
	sinkOf() *sink
	flightsOf() *flights
}

func (c *udpConn) sinkOf() *sink       { return &c.sk }
func (c *udpConn) flightsOf() *flights { return &c.f }
func (c *dotConn) sinkOf() *sink       { return &c.sk }
func (c *dotConn) flightsOf() *flights { return &c.f }
func (c *dohSlot) sinkOf() *sink       { return &c.sk }
func (c *dohSlot) flightsOf() *flights { return &c.f }

func (s *session) senders() []sender {
	var out []sender
	for _, c := range s.udp {
		out = append(out, c)
	}
	for _, c := range s.dot {
		out = append(out, c)
	}
	for _, c := range s.doh {
		out = append(out, c)
	}
	return out
}

func (s *session) read() (reading, error) {
	p, err := s.px.snap()
	if err != nil {
		return reading{}, err
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(runtimeSamples)
	m := reading{proxy: p, wire: wireBytes.Load(), genCPU: ru.Utime.Nano() + ru.Stime.Nano(),
		genAlloc: runtimeSamples[0].Value.Uint64(), genGC: runtimeSamples[1].Value.Uint64()}
	m.emu, m.emuBusy = s.emu.queries.Load(), s.emu.busyNs.Load()
	return m, nil
}

// exchangeAll sends names through the connections in a closed loop of
// the workload's window and waits for every answer.
func (s *session) exchangeAll(cs []sender, ph *phase, names []int) error {
	var mu sync.Mutex
	next := 0
	take := func(n int) []query {
		mu.Lock()
		defer mu.Unlock()
		k := min(n, len(names)-next)
		qs := make([]query, k)
		for i := range qs {
			qs[i] = query{idx: names[next+i], due: now()}
		}
		next += k
		return qs
	}
	for _, c := range cs {
		fn := func(n int) {
			if qs := take(n); len(qs) > 0 {
				c.send(ph, qs)
			}
		}
		c.sinkOf().refill.Store(&fn)
		if err := c.send(ph, take(s.rc.w.window)); err != nil {
			return err
		}
	}
	s.drain(cs, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return next == len(names)
	})
	for _, c := range cs {
		c.sinkOf().refill.Store(nil)
	}
	if ph.failed.Load() > 0 {
		return fmt.Errorf("%d of %d queries failed (first: %s)", ph.failed.Load(), len(names), ph.firstBad)
	}
	return nil
}

// drain waits until sent() holds and nothing is in flight, then fails
// whatever is still outstanding once drainTimeout passes without a reply.
func (s *session) drain(cs []sender, sent func() bool) {
	var lastEnded int64 = -1
	idle := time.Now()
	for {
		live, ended := 0, int64(0)
		for _, c := range cs {
			l, e := c.flightsOf().progress()
			live, ended = live+l, ended+e
		}
		if live == 0 && sent() {
			return
		}
		if ended != lastEnded {
			lastEnded, idle = ended, time.Now()
		} else if time.Since(idle) > drainTimeout {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, c := range cs {
		c.flightsOf().expire()
	}
}

// warm primes the cache (every name once, for primed workloads), then
// runs the closed loop for the workload's warm-up time. Nothing here is
// measured.
func (s *session) warm() error {
	w := s.rc.w
	if w.primed {
		names := make([]int, w.names)
		for i := range names {
			names[i] = i
		}
		if err := s.exchangeAll(s.senders(), &phase{}, names); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	ph, _ := s.closedLoop(time.Duration(w.warmup * float64(time.Second)))
	if ph.failed.Load() > 0 {
		return fmt.Errorf("warm-up: %d queries failed (first: %s)", ph.failed.Load(), ph.firstBad)
	}
	return nil
}

// closedLoop keeps the workload's window of queries in flight on every
// connection for d, drawing names from one seeded stream per connection,
// and returns the phase and the completed queries per second.
func (s *session) closedLoop(d time.Duration) (*phase, float64) {
	s.loops++
	ph := &phase{}
	cs := s.senders()
	for i, c := range cs {
		// Each closed loop of a session draws from streams of its own, so
		// the measured loop does not replay the names warm-up just sent.
		names := newNameStream(s.rc.w, s.rc.seed, uint64(16*s.loops+i))
		var mu sync.Mutex
		qs := make([]query, 0, 64)
		fn := func(n int) {
			mu.Lock()
			defer mu.Unlock()
			qs = qs[:0]
			t := now()
			for range n {
				qs = append(qs, query{idx: names.next(), due: t})
			}
			c.send(ph, qs)
		}
		c.sinkOf().refill.Store(&fn)
	}
	start := time.Now()
	for _, c := range cs {
		fn := *c.sinkOf().refill.Load()
		fn(s.rc.w.window)
	}
	time.Sleep(time.Until(start.Add(d)))
	for _, c := range cs {
		c.sinkOf().refill.Store(nil)
	}
	qps := float64(ph.done.Load()) / time.Since(start).Seconds()
	s.drain(cs, func() bool { return true })
	return ph, qps
}

// openLoop sends the next d of the workload's seeded Poisson schedule,
// query i on connection i mod n, and returns the phase and each send's
// lateness.
func (s *session) openLoop(d time.Duration) (*phase, []int64, error) {
	// Sized for the whole schedule: growing these under the phase lock
	// would stall the readers for milliseconds mid-phase.
	n := int(s.rc.w.rate*d.Seconds()*1.1) + 1024
	ph := &phase{open: true, lat: make([]int64, 0, n), due: make([]int64, 0, n)}
	cs := s.senders()
	late, err := pace(d, s.sched, func(i int, due int64) query {
		return query{idx: s.openNames.next(), due: due}
	}, func(i int, qs []query) error {
		return cs[i%len(cs)].send(ph, qs)
	}, len(cs), n)
	if err != nil {
		return nil, nil, err
	}
	s.drain(cs, func() bool { return true })
	return ph, late, nil
}

// freshProbes times the first answer on n fresh TLS connections — dial,
// the TLS 1.3 handshake and, for DoH, the h2 preface — against the idle
// proxy, one at a time. udp-hot probes DoT: Do53 has no handshake, and a
// fresh socket's first round trip times only the hosts' idle wake-ups.
func (s *session) freshProbes(n int) ([]int64, error) {
	probe := probeDoT
	if s.rc.w.transport == "doh" {
		probe = probeDoH
	}
	out := make([]int64, 0, n)
	for range n {
		d, err := probe(s.px, s.rc.w)
		if err != nil {
			return nil, err
		}
		out = append(out, int64(d))
	}
	return out, nil
}

// Probes: one query of name 0 on a fresh connection, answer checked.

func probeUDP(px *proxyProc, w workload) (time.Duration, error) {
	t0 := time.Now()
	c, err := net.Dial("udp", px.ready.UDP)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	q := appendQuery(nil, 1, 0, w.zone)
	buf := make([]byte, 512)
	for try := 0; try < 3; try++ {
		if _, err := c.Write(q); err != nil {
			return 0, err
		}
		c.SetReadDeadline(time.Now().Add(time.Second))
		n, err := c.Read(buf)
		if err != nil {
			continue
		}
		d := time.Since(t0)
		return d, checkReply(buf[:n], 1, 0, w.zone)
	}
	return 0, errors.New("udp probe: no answer")
}

func probeDoT(px *proxyProc, w workload) (time.Duration, error) {
	t0 := time.Now()
	tc, err := dialTLS(px.ready.DoT, tlsConfig(px.roots))
	if err != nil {
		return 0, err
	}
	defer tc.Close()
	tc.SetDeadline(time.Now().Add(5 * time.Second))
	q := appendQuery([]byte{0, 0}, 1, 0, w.zone)
	binary.BigEndian.PutUint16(q, uint16(len(q)-2))
	if _, err := tc.Write(q); err != nil {
		return 0, err
	}
	var lb [2]byte
	if _, err := io.ReadFull(tc, lb[:]); err != nil {
		return 0, err
	}
	resp := make([]byte, binary.BigEndian.Uint16(lb[:]))
	if _, err := io.ReadFull(tc, resp); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, checkReply(resp, 1, 0, w.zone)
}

func probeDoH(px *proxyProc, w workload) (time.Duration, error) {
	t0 := time.Now()
	c, err := dialH2(px.ready.DoH, px.roots, 1)
	if err != nil {
		return 0, err
	}
	type reply struct {
		body   []byte
		status int
	}
	got := make(chan reply, 1)
	c.onReply = func(_ *h2Conn, _ uint16, body []byte, status int, _ int64) {
		got <- reply{slices.Clone(body), status}
	}
	go c.readLoop(nil)
	defer func() { c.tc.Close(); <-c.done }()
	if err := c.write(c.appendRequest(nil, 1, appendQuery(nil, 1, 0, w.zone))); err != nil {
		return 0, err
	}
	select {
	case r := <-got:
		d := time.Since(t0)
		if r.status != 200 {
			return 0, fmt.Errorf("doh probe: HTTP status %d", r.status)
		}
		return d, checkReply(r.body, 1, 0, w.zone)
	case <-c.done:
		select {
		case r := <-got:
			d := time.Since(t0)
			if r.status != 200 {
				return 0, fmt.Errorf("doh probe: HTTP status %d", r.status)
			}
			return d, checkReply(r.body, 1, 0, w.zone)
		default:
			return 0, fmt.Errorf("doh probe: connection closed: %v", c.err)
		}
	case <-time.After(5 * time.Second):
		return 0, errors.New("doh probe: no answer")
	}
}

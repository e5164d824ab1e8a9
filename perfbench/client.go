package main

// The load generator's transports. Each sends pre-packed queries, matches
// replies by ID and validates them with a light parse — no
// dnswire.Message.Unpack — so the generator costs far less per query than
// the proxy it drives.

import (
	"bufio"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dohcost/internal/h2"
	"dohcost/internal/hpack"
	"dohcost/internal/udpio"
)

// epoch anchors every generator timestamp on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// wireBytes counts bytes on the generator's sockets in both directions,
// below TLS for stream transports.
var wireBytes atomic.Int64

// phase collects the outcome of every query sent while it was current.
type phase struct {
	open     bool // open loop: record latency from each query's due time
	done     atomic.Int64
	failed   atomic.Int64
	wrong    atomic.Int64
	mu       sync.Mutex
	lat      []int64 // open loop: latency from due time
	due      []int64 // open loop: the due time of each lat sample
	firstBad string
}

func (p *phase) complete(due, at int64) {
	p.done.Add(1)
	if p.open {
		p.mu.Lock()
		p.lat = append(p.lat, at-due)
		p.due = append(p.due, due)
		p.mu.Unlock()
	}
}

func (p *phase) fail(wrong bool, why string) {
	p.failed.Add(1)
	if wrong {
		p.wrong.Add(1)
	}
	p.mu.Lock()
	if p.firstBad == "" {
		p.firstBad = why
	}
	p.mu.Unlock()
}

// query is one query to send: a name index and its due time.
type query struct {
	idx int
	due int64
}

type slot struct {
	ph   *phase
	idx  int32
	due  int64
	live bool
}

// flights tracks one connection's queries in flight by DNS ID. The top
// bit of the ID names the connection, so IDs are unique across the two
// connections of a run (and the proxy's span log can key on them).
type flights struct {
	mu    sync.Mutex
	slots [1 << 15]slot
	base  uint16
	seq   uint16
	live  int
	ended int64 // queries answered or expired, ever
}

func (f *flights) start(ph *phase, q query) uint16 {
	f.mu.Lock()
	id := f.base | f.seq&0x7fff
	f.seq++
	s := &f.slots[id&0x7fff]
	if s.live {
		// A query 32768 sends old never came back: it has timed out.
		s.ph.fail(false, "timeout")
		f.live--
	}
	*s = slot{ph: ph, idx: int32(q.idx), due: q.due, live: true}
	f.live++
	f.mu.Unlock()
	return id
}

func (f *flights) finish(id uint16) (slot, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if id&0x8000 != f.base {
		return slot{}, false
	}
	s := &f.slots[id&0x7fff]
	if !s.live {
		return slot{}, false
	}
	out := *s
	s.live = false
	f.live--
	f.ended++
	return out, true
}

// progress reports the queries in flight and the number ever ended.
func (f *flights) progress() (live int, ended int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.live, f.ended
}

// expire fails every query still in flight.
func (f *flights) expire() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.slots {
		if s := &f.slots[i]; s.live {
			s.ph.fail(false, "timeout")
			s.live = false
		}
	}
	f.live = 0
}

// checkReply validates resp as the answer to query id for name idx: ID,
// QR, RCODE NOERROR, TC clear, the question echoed byte for byte, and
// exactly the A records the emulator defines for the name.
func checkReply(resp []byte, id uint16, idx int, zone string) error {
	if len(resp) < 12 {
		return errors.New("short reply")
	}
	if binary.BigEndian.Uint16(resp) != id {
		return errors.New("ID mismatch")
	}
	if resp[2]&0x80 == 0 || resp[2]&0x02 != 0 {
		return fmt.Errorf("flags %02x%02x: not a complete response", resp[2], resp[3])
	}
	if rc := resp[3] & 0x0f; rc != 0 {
		return fmt.Errorf("rcode %d", rc)
	}
	var qb [64]byte
	question := append(appendQName(qb[:0], idx, zone), 0, 1, 0, 1)
	k := answerCount(idx, zone)
	if binary.BigEndian.Uint16(resp[4:]) != 1 || int(binary.BigEndian.Uint16(resp[6:])) != k {
		return fmt.Errorf("counts qd=%d an=%d, want 1 and %d", binary.BigEndian.Uint16(resp[4:]), binary.BigEndian.Uint16(resp[6:]), k)
	}
	if want := 12 + len(question) + k*rrLen; len(resp) != want {
		return fmt.Errorf("reply is %d bytes, want %d", len(resp), want)
	}
	if string(resp[12:12+len(question)]) != string(question) {
		return errors.New("question not echoed")
	}
	off := 12 + len(question)
	for j := 0; j < k; j++ {
		rr := resp[off : off+rrLen]
		a := answerRR(idx, j)
		if rr[0] != 0xc0 || rr[1] != 12 || binary.BigEndian.Uint32(rr[2:]) != 0x00010001 ||
			binary.BigEndian.Uint16(rr[10:]) != 4 || [4]byte(rr[12:16]) != a {
			return fmt.Errorf("answer %d differs from the emulator's", j)
		}
		off += rrLen
	}
	return nil
}

// sink receives every validated (or failed) reply of a connection.
type sink struct {
	zone string
	// refill, when set, is the closed loop: it is handed the number of
	// replies just consumed and sends as many new queries.
	refill atomic.Pointer[func(n int)]
}

func (s *sink) deliver(f *flights, id uint16, resp []byte, at int64) {
	sl, ok := f.finish(id)
	if !ok {
		return
	}
	if err := checkReply(resp, id, int(sl.idx), s.zone); err != nil {
		sl.ph.fail(true, err.Error())
		return
	}
	sl.ph.complete(int64(sl.due), at)
}

// countConn counts a stream socket's bytes into wireBytes.
type countConn struct{ net.Conn }

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	wireBytes.Add(int64(n))
	return n, err
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	wireBytes.Add(int64(n))
	return n, err
}

// ---- Do53/UDP ----

// udpConn is one client socket carrying batched queries: sends and reads
// use the same udpio batch calls the proxy serves with.
type udpConn struct {
	bc   udpio.BatchConn
	to   net.Addr
	f    flights
	sk   sink
	smu  sync.Mutex
	out  []udpio.Message
	in   []udpio.Message
	done chan struct{}
}

func dialUDP(addr string, zone string, base uint16) (*udpConn, error) {
	to, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	pc.SetReadBuffer(4 << 20)
	pc.SetWriteBuffer(4 << 20)
	c := &udpConn{bc: udpio.Wrap(pc), to: to, done: make(chan struct{})}
	c.f.base = base
	c.sk.zone = zone
	c.out = make([]udpio.Message, udpio.MaxBatch)
	c.in = make([]udpio.Message, udpio.MaxBatch)
	for i := range c.out {
		c.out[i].Buf = make([]byte, 0, 512)
		c.in[i].Buf = make([]byte, 512)
	}
	return c, nil
}

func (c *udpConn) send(ph *phase, qs []query) error {
	c.smu.Lock()
	defer c.smu.Unlock()
	for len(qs) > 0 {
		n := min(len(qs), len(c.out))
		for i, q := range qs[:n] {
			id := c.f.start(ph, q)
			b := appendQuery(c.out[i].Buf[:0], id, q.idx, c.sk.zone)
			c.out[i] = udpio.Message{Buf: b, N: len(b), Addr: c.to}
			wireBytes.Add(int64(len(b)))
		}
		if _, err := c.bc.WriteBatch(c.out[:n]); err != nil {
			return err
		}
		qs = qs[n:]
	}
	return nil
}

func (c *udpConn) readLoop() {
	defer close(c.done)
	for {
		n, err := c.bc.ReadBatch(c.in)
		if err != nil {
			return
		}
		at := now()
		for i := 0; i < n; i++ {
			m := c.in[i].Buf[:c.in[i].N]
			wireBytes.Add(int64(len(m)))
			if len(m) >= 2 {
				c.sk.deliver(&c.f, binary.BigEndian.Uint16(m), m, at)
			}
		}
		if fn := c.sk.refill.Load(); fn != nil {
			(*fn)(n)
		}
	}
}

func (c *udpConn) close() {
	c.bc.Close()
	<-c.done
}

// ---- DoT ----

func tlsConfig(roots *x509.CertPool, protos ...string) *tls.Config {
	// No session cache: every dial is a full handshake.
	return &tls.Config{RootCAs: roots, ServerName: benchHost, MinVersion: tls.VersionTLS13, NextProtos: protos}
}

func dialTLS(addr string, cfg *tls.Config) (*tls.Conn, error) {
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	tc := tls.Client(countConn{raw}, cfg)
	tc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := tc.Handshake(); err != nil {
		tc.Close()
		return nil, err
	}
	tc.SetDeadline(time.Time{})
	return tc, nil
}

// dotConn is one persistent DoT connection carrying pipelined queries.
type dotConn struct {
	tc   *tls.Conn
	br   *bufio.Reader
	f    flights
	sk   sink
	smu  sync.Mutex
	wbuf []byte
	done chan struct{}
}

func dialDoT(addr string, roots *x509.CertPool, zone string, base uint16) (*dotConn, error) {
	tc, err := dialTLS(addr, tlsConfig(roots))
	if err != nil {
		return nil, err
	}
	c := &dotConn{tc: tc, br: bufio.NewReaderSize(tc, 64<<10), done: make(chan struct{})}
	c.f.base = base
	c.sk.zone = zone
	return c, nil
}

func (c *dotConn) send(ph *phase, qs []query) error {
	c.smu.Lock()
	defer c.smu.Unlock()
	b := c.wbuf[:0]
	for _, q := range qs {
		id := c.f.start(ph, q)
		at := len(b)
		b = append(b, 0, 0)
		b = appendQuery(b, id, q.idx, c.sk.zone)
		binary.BigEndian.PutUint16(b[at:], uint16(len(b)-at-2))
	}
	c.wbuf = b
	_, err := c.tc.Write(b)
	return err
}

func (c *dotConn) readLoop() {
	defer close(c.done)
	buf := make([]byte, 65535)
	consumed := 0
	for {
		var lb [2]byte
		if _, err := io.ReadFull(c.br, lb[:]); err != nil {
			return
		}
		m := buf[:binary.BigEndian.Uint16(lb[:])]
		if _, err := io.ReadFull(c.br, m); err != nil {
			return
		}
		if len(m) >= 2 {
			c.sk.deliver(&c.f, binary.BigEndian.Uint16(m), m, now())
		}
		consumed++
		if c.br.Buffered() == 0 {
			if fn := c.sk.refill.Load(); fn != nil {
				(*fn)(consumed)
			}
			consumed = 0
		}
	}
}

func (c *dotConn) close() {
	c.tc.Close()
	<-c.done
}

// ---- DoH over h2 ----

// dohRequestHeaders is the HPACK block of every request, encoded once
// without indexing: :method POST, :scheme https (static entries),
// :authority, :path /dns-query and content-type as literals.
var dohRequestHeaders = func() []byte {
	b := []byte{0x83, 0x87}
	lit := func(index byte, v string) {
		b = append(b, index, byte(len(v)))
		b = append(b, v...)
	}
	lit(0x01, benchHost)
	lit(0x04, "/dns-query")
	b = append(b, 0x0f, 0x10) // content-type: static index 31, 4-bit prefix
	b = append(b, byte(len("application/dns-message")))
	return append(b, "application/dns-message"...)
}()

// appendFrame appends one h2 frame, so a burst of requests leaves in a
// single write (h2.Framer writes every frame on its own).
func appendFrame(dst []byte, typ h2.FrameType, flags byte, stream uint32, payload []byte) []byte {
	n := len(payload)
	dst = append(dst, byte(n>>16), byte(n>>8), byte(n), byte(typ), flags)
	dst = binary.BigEndian.AppendUint32(dst, stream)
	return append(dst, payload...)
}

// h2Conn is one DoH connection: it carries at most limit requests
// (0 = unlimited), then closes once the last is answered.
type h2Conn struct {
	tc    *tls.Conn
	br    *bufio.Reader // beneath fr; its Buffered count batches refills
	fr    *h2.Framer
	dec   *hpack.Decoder
	limit int
	sent  int // guarded by the owning dohSlot's send lock
	// mu guards the per-stream state shared by sender and reader.
	mu      sync.Mutex
	ids     []uint16
	status  []int
	body    [][]byte
	done    chan struct{}
	onReply func(c *h2Conn, dnsID uint16, body []byte, status int, at int64)
	answers int
	err     error
}

func dialH2(addr string, roots *x509.CertPool, limit int) (*h2Conn, error) {
	tc, err := dialTLS(addr, tlsConfig(roots, "h2"))
	if err != nil {
		return nil, err
	}
	if tc.ConnectionState().NegotiatedProtocol != "h2" {
		tc.Close()
		return nil, errors.New("doh: server did not negotiate h2")
	}
	br := bufio.NewReaderSize(tc, 64<<10)
	c := &h2Conn{tc: tc, br: br, fr: h2.NewFramer(struct {
		io.Reader
		io.Writer
	}{br, tc}), dec: hpack.NewDecoder(), limit: limit, done: make(chan struct{})}
	// Preface, SETTINGS with a large stream window, and a large
	// connection window: the client never throttles the server.
	b := []byte(h2.ClientPreface)
	b = appendFrame(b, h2.FrameSettings, 0, 0, []byte{0, h2.SettingInitialWindowSize, 0x40, 0, 0, 0})
	b = appendFrame(b, h2.FrameWindowUpdate, 0, 0, []byte{0x3f, 0xff, 0, 0})
	if _, err := tc.Write(b); err != nil {
		tc.Close()
		return nil, err
	}
	return c, nil
}

// appendRequest appends one POST carrying query wire q as stream n.
func (c *h2Conn) appendRequest(dst []byte, dnsID uint16, q []byte) []byte {
	stream := uint32(2*c.sent + 1)
	c.sent++
	c.mu.Lock()
	c.ids = append(c.ids, dnsID)
	c.status = append(c.status, 0)
	c.body = append(c.body, nil)
	c.mu.Unlock()
	dst = appendFrame(dst, h2.FrameHeaders, h2.FlagEndHeaders, stream, dohRequestHeaders)
	return appendFrame(dst, h2.FrameData, h2.FlagEndStream, stream, q)
}

// readLoop reads frames until the connection closes or, with a request
// limit, until the last request is answered.
func (c *h2Conn) readLoop(refill func(n int)) {
	defer close(c.done)
	defer c.tc.Close()
	var block []byte
	consumed := 0
	for {
		fr, err := c.fr.ReadFrame()
		if err != nil {
			c.err = err
			return
		}
		p, flags, stream := fr.Payload, fr.Flags, fr.StreamID
		switch fr.Type {
		case h2.FrameSettings:
			if flags&h2.FlagAck == 0 {
				c.write(appendFrame(nil, h2.FrameSettings, h2.FlagAck, 0, nil))
			}
		case h2.FramePing:
			if flags&h2.FlagAck == 0 {
				c.write(appendFrame(nil, h2.FramePing, h2.FlagAck, 0, p))
			}
		case h2.FrameGoAway, h2.FrameRSTStream:
			c.err = fmt.Errorf("doh: server sent %v", fr.Type)
			return
		case h2.FrameHeaders, h2.FrameContinuation:
			block = append(block, p...)
			if flags&h2.FlagEndHeaders == 0 {
				continue
			}
			fields, err := c.dec.Decode(block)
			block = block[:0]
			if err != nil {
				c.err = err
				return
			}
			i := int(stream-1) / 2
			c.mu.Lock()
			ok := i < len(c.status)
			for _, f := range fields {
				if ok && f.Name == ":status" {
					c.status[i], _ = strconv.Atoi(f.Value)
				}
			}
			c.mu.Unlock()
			if !ok {
				c.err = errors.New("doh: response on an unknown stream")
				return
			}
		case h2.FrameData:
			i := int(stream-1) / 2
			c.mu.Lock()
			if i >= len(c.body) {
				c.mu.Unlock()
				c.err = errors.New("doh: data on an unknown stream")
				return
			}
			c.body[i] = append(c.body[i], p...)
			id, body, status := c.ids[i], c.body[i], c.status[i]
			if flags&h2.FlagEndStream != 0 {
				c.body[i] = nil
			}
			c.mu.Unlock()
			if flags&h2.FlagEndStream != 0 {
				c.onReply(c, id, body, status, now())
				c.answers++
				consumed++
			}
		}
		if c.br.Buffered() == 0 && consumed > 0 {
			if refill != nil {
				refill(consumed)
			}
			consumed = 0
		}
		if c.limit > 0 && c.answers == c.limit {
			return
		}
	}
}

func (c *h2Conn) write(b []byte) error {
	_, err := c.tc.Write(b)
	return err
}

// dohSlot is one logical DoH client connection: it sends on the current
// h2 connection until that has carried its request limit, then moves to
// a connection dialed ahead of time in the background, so a replacement
// handshake never stalls the send schedule.
type dohSlot struct {
	addr  string
	roots *x509.CertPool
	limit int
	f     flights
	sk    sink
	smu   sync.Mutex
	cur   *h2Conn
	next  chan *h2Conn
	wbuf  []byte
	qbuf  []byte
	mu    sync.Mutex
	live  []*h2Conn
}

func newDoHSlot(addr string, roots *x509.CertPool, zone string, base uint16, limit int) (*dohSlot, error) {
	s := &dohSlot{addr: addr, roots: roots, limit: limit, next: make(chan *h2Conn, 1)}
	s.f.base = base
	s.sk.zone = zone
	c, err := s.dial()
	if err != nil {
		return nil, err
	}
	s.cur = c
	go s.dialAhead()
	return s, nil
}

func (s *dohSlot) dial() (*h2Conn, error) {
	c, err := dialH2(s.addr, s.roots, s.limit)
	if err != nil {
		return nil, err
	}
	c.onReply = func(c *h2Conn, id uint16, body []byte, status int, at int64) {
		if status != 200 {
			if sl, ok := s.f.finish(id); ok {
				sl.ph.fail(true, fmt.Sprintf("HTTP status %d", status))
			}
			return
		}
		s.sk.deliver(&s.f, id, body, at)
	}
	s.mu.Lock()
	s.live = append(s.live, c)
	s.mu.Unlock()
	go c.readLoop(func(n int) {
		if fn := s.sk.refill.Load(); fn != nil {
			(*fn)(n)
		}
	})
	return c, nil
}

func (s *dohSlot) dialAhead() {
	c, err := s.dial()
	if err != nil {
		close(s.next)
		return
	}
	s.next <- c
}

func (s *dohSlot) send(ph *phase, qs []query) error {
	s.smu.Lock()
	defer s.smu.Unlock()
	b := s.wbuf[:0]
	for _, q := range qs {
		if s.limit > 0 && s.cur.sent == s.limit {
			if len(b) > 0 {
				if err := s.cur.write(b); err != nil {
					return err
				}
				b = b[:0]
			}
			c, ok := <-s.next
			if !ok {
				return errors.New("doh: redial failed")
			}
			s.cur = c
			go s.dialAhead()
		}
		id := s.f.start(ph, q)
		s.qbuf = appendQuery(s.qbuf[:0], id, q.idx, s.sk.zone)
		b = s.cur.appendRequest(b, id, s.qbuf)
	}
	s.wbuf = b
	return s.cur.write(b)
}

func (s *dohSlot) close() {
	s.smu.Lock()
	defer s.smu.Unlock()
	if c, ok := <-s.next; ok {
		c.tc.Close()
		<-c.done
	}
	s.mu.Lock()
	live := s.live
	s.mu.Unlock()
	for _, c := range live {
		c.tc.Close()
		<-c.done
	}
}

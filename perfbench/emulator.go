package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// emulator is the zero-delay upstream resolver, serving DNS over TCP on
// loopback inside the generator process. Its answer for a name follows
// from the name alone (answerCount, answerRR), so the generator can check
// every reply the proxy relays or caches.
type emulator struct {
	ln      net.Listener
	queries atomic.Int64
	bad     atomic.Int64
	busyNs  atomic.Int64
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   []net.Conn
}

func startEmulator() (*emulator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &emulator{ln: ln}
	e.wg.Add(1)
	go e.accept()
	return e, nil
}

func (e *emulator) addr() string { return e.ln.Addr().String() }

func (e *emulator) accept() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		e.conns = append(e.conns, c)
		e.mu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.serve(c)
		}()
	}
}

func (e *emulator) close() {
	e.ln.Close()
	e.mu.Lock()
	for _, c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// serve answers framed queries in order; replies are flushed whenever no
// further query is already buffered, so pipelined queries share writes.
func (e *emulator) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	q := make([]byte, 0, 512)
	out := make([]byte, 0, 512)
	var lenb [2]byte
	for {
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint16(lenb[:]))
		q = q[:n]
		if _, err := io.ReadFull(br, q); err != nil {
			return
		}
		t0 := time.Now()
		var err error
		out, err = emulatorAnswer(out[:0], q)
		e.queries.Add(1)
		if err != nil {
			e.bad.Add(1)
			return
		}
		e.busyNs.Add(int64(time.Since(t0)))
		bw.Write(binary.BigEndian.AppendUint16(lenb[:0], uint16(len(out))))
		bw.Write(out)
		if br.Buffered() == 0 {
			if bw.Flush() != nil {
				return
			}
		}
	}
}

var errBadQuery = errors.New("emulator: query outside the benchmark's name space")

// emulatorAnswer appends the answer to query q: the header and question
// echoed, then answerCount(idx) A records with a compression pointer to
// the question name and a one-hour TTL.
func emulatorAnswer(dst, q []byte) ([]byte, error) {
	if len(q) < 12 || binary.BigEndian.Uint16(q[4:]) != 1 {
		return nil, errBadQuery
	}
	idx, zone, end, ok := parseBenchName(q, 12)
	if !ok || end+4 > len(q) {
		return nil, errBadQuery
	}
	k := answerCount(idx, zone)
	dst = append(dst, q[0], q[1], 0x80|q[2]&0x01, 0x80, 0, 1, 0, byte(k), 0, 0, 0, 0)
	dst = append(dst, q[12:end+4]...)
	for j := 0; j < k; j++ {
		a := answerRR(idx, j)
		dst = append(dst, 0xc0, 12, 0, 1, 0, 1, 0, 0, 0x0e, 0x10, 0, 4, a[0], a[1], a[2], a[3])
	}
	return dst, nil
}

// parseBenchName reads a q<index>.<zone>.bench. name at off and returns
// the index, the zone and the offset just past the name.
func parseBenchName(m []byte, off int) (idx int, zone string, end int, ok bool) {
	if off >= len(m) {
		return 0, "", 0, false
	}
	l := int(m[off])
	if l < 2 || off+1+l >= len(m) || m[off+1] != 'q' {
		return 0, "", 0, false
	}
	for _, c := range m[off+2 : off+1+l] {
		if c < '0' || c > '9' {
			return 0, "", 0, false
		}
		idx = idx*10 + int(c-'0')
	}
	off += 1 + l
	zl := int(m[off])
	if zl == 0 || off+1+zl+7 > len(m) {
		return 0, "", 0, false
	}
	zone = string(m[off+1 : off+1+zl])
	off += 1 + zl
	if string(m[off:off+7]) != "\x05bench\x00" {
		return 0, "", 0, false
	}
	return idx, zone, off + 7, true
}

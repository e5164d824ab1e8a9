package main

// The reference responder: a DNS-over-UDP echo written with the standard
// library alone, in a process of its own. The untraced run drives it in
// short closed loops between its measured segments. It shares no code with
// the program under test, so its speed moves only with the host's: on the
// shared 2-vCPU host the benchmark was tuned on, the proxy's CPU per query
// drifted by 30% over minutes, and the reference's moved with it. Each
// segment's figures are scaled by the reference's speed measured beside
// it (see slowness in run.go).

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Nominal speed of the reference loop: the scale the normalized metrics
// are expressed in. A segment during which the reference ran at these
// figures keeps its raw values. They are fixed, like the open-loop rates,
// near what the 2-vCPU host gave in calm periods.
const (
	refNominalQPS   = 120000
	refNominalCPUUs = 7.5
	// refWindow is the reference loop's queries in flight per socket.
	refWindow = 32
)

// refMain serves the reference role: one UDP socket per GOMAXPROCS, each
// datagram sent back with its QR bit set. It announces its addresses in
// one JSON line, answers each line on stdin with its CPU time in ns, and
// exits when stdin closes.
func refMain() error {
	var conns []*net.UDPConn
	for range runtime.GOMAXPROCS(0) {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return err
		}
		conns = append(conns, c)
	}
	var addrs []string
	for _, c := range conns {
		addrs = append(addrs, c.LocalAddr().String())
		go func() {
			buf := make([]byte, 512)
			for {
				n, a, err := c.ReadFromUDPAddrPort(buf)
				if err != nil {
					return
				}
				if n > 2 {
					buf[2] |= 0x80
				}
				c.WriteToUDPAddrPort(buf[:n], a)
			}
		}()
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(addrs); err != nil {
		return err
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		var ru syscall.Rusage
		syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		if err := enc.Encode(ru.Utime.Nano() + ru.Stime.Nano()); err != nil {
			return err
		}
	}
	return nil
}

// refProc is the reference responder, a child process.
type refProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	dec   *json.Decoder
	addrs []string
}

func startRef(exe string) (*refProc, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"=ref")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := &refProc{cmd: cmd, stdin: stdin, dec: json.NewDecoder(stdout)}
	if err := r.dec.Decode(&r.addrs); err != nil {
		r.stop()
		return nil, fmt.Errorf("reference responder did not start: %w", err)
	}
	return r, nil
}

func (r *refProc) cpuNs() (int64, error) {
	if _, err := io.WriteString(r.stdin, "cpu\n"); err != nil {
		return 0, err
	}
	var v int64
	err := r.dec.Decode(&v)
	return v, err
}

// stop closes the responder's stdin, which makes it exit, and waits for
// it.
func (r *refProc) stop() {
	r.stdin.Close()
	done := make(chan struct{})
	go func() { r.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		r.cmd.Process.Kill()
		<-done
	}
}

// refSpeed is one closed-loop measurement of the reference responder.
type refSpeed struct {
	qps   float64 // replies per second, client and responder together
	cpuUs float64 // the responder's CPU per reply
}

// loop drives the responder in a closed loop for d: one standard-library
// UDP socket per responder socket, refWindow queries in flight on each,
// every reply checked.
func (r *refProc) loop(d time.Duration) (refSpeed, error) {
	cpu0, err := r.cpuNs()
	if err != nil {
		return refSpeed{}, err
	}
	q := appendQuery(nil, 1, 0, "s")
	var (
		done     atomic.Int64
		stopping atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	start := time.Now()
	for _, a := range r.addrs {
		c, err := net.Dial("udp", a)
		if err != nil {
			return refSpeed{}, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			buf := make([]byte, 512)
			for range refWindow {
				if _, err := c.Write(q); err != nil {
					fail(err)
					return
				}
			}
			for inflight := refWindow; inflight > 0; inflight-- {
				c.SetReadDeadline(time.Now().Add(drainTimeout))
				n, err := c.Read(buf)
				if err != nil {
					fail(fmt.Errorf("reference loop: %w", err))
					return
				}
				if n != len(q) || buf[2] != q[2]|0x80 {
					fail(errors.New("reference loop: wrong reply"))
					return
				}
				done.Add(1)
				if !stopping.Load() {
					if _, err := c.Write(q); err != nil {
						fail(err)
						return
					}
					inflight++
				}
			}
		}()
	}
	time.Sleep(d)
	n, secs := done.Load(), time.Since(start).Seconds()
	stopping.Store(true)
	wg.Wait()
	if firstErr != nil {
		return refSpeed{}, firstErr
	}
	cpu1, err := r.cpuNs()
	if err != nil {
		return refSpeed{}, err
	}
	if n == 0 {
		return refSpeed{}, errors.New("reference loop: no reply")
	}
	return refSpeed{qps: float64(n) / secs, cpuUs: float64(cpu1-cpu0) / 1e3 / float64(done.Load())}, nil
}

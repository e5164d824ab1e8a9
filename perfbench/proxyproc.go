package main

// The proxy under test, in its own process. It builds the forwarding
// proxy with proxy.New and serves it on kernel loopback sockets through
// the program's public serving types — the real-socket counterpart of
// dnsserver.Server.Start, which only binds the simulated network:
//
//   - Do53/UDP: dnsserver.UDPServer.ServeBatch over one SO_REUSEPORT
//     socket per GOMAXPROCS, as udpio.ListenShards binds them;
//   - DoT: dnsserver.StreamServer (out-of-order replies) behind TLS 1.3;
//   - DoH: dnsserver.DoH.Bind and h2.Server.ServeConn over tls.Server.
//
// It announces its addresses in one JSON line on stdout, then answers
// each "snap" line on stdin with a JSON snapshot of its counters, and
// exits when stdin closes.

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"

	"dohcost/internal/dnscache"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/guard"
	"dohcost/internal/h2"
	"dohcost/internal/proxy"
	"dohcost/internal/telemetry"
	"dohcost/internal/tlsx"
	"dohcost/internal/udpio"
)

// ready is the proxy's first line on stdout.
type ready struct {
	UDP string `json:"udp"`
	DoT string `json:"dot"`
	DoH string `json:"doh"`
	// Root is the DER of the certificate the generator trusts: the
	// intermediate that signed the listeners' leaf.
	Root []byte `json:"root"`
}

// snapshot is the proxy's answer to "snap": cumulative counters since
// start, differenced by the generator across each phase.
type snapshot struct {
	CPUNs      int64                     `json:"cpu_ns"`
	MaxRSSKB   int64                     `json:"maxrss_kb"`
	AllocBytes uint64                    `json:"alloc_bytes"`
	GCCycles   uint64                    `json:"gc_cycles"`
	Cache      dnscache.Stats            `json:"cache"`
	Guard      guard.Report              `json:"guard"`
	Shards     []dnsserver.UDPShardStats `json:"shards"`
	Spans      map[string]spanAgg        `json:"spans,omitempty"`
	Counters   map[string]int64          `json:"counters,omitempty"`
}

const benchHost = "bench.test"

func proxyMain(args []string) error {
	fs := flag.NewFlagSet("proxy", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload name")
	upstream := fs.String("upstream", "", "upstream emulator address (DNS over TCP)")
	traced := fs.Bool("trace", false, "install the per-layer span wrappers")
	spansPath := fs.String("spans", "", "file to write the span log to at exit (traced runs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*wname)
	if !ok || *upstream == "" {
		return fmt.Errorf("proxy: need a known -workload and an -upstream")
	}
	var rec *recorder
	if *traced {
		rec = newRecorder(w.transport)
	}

	chain, err := tlsx.GenerateChain(tlsx.ChainSpec{CommonName: benchHost, DNSNames: []string{benchHost}})
	if err != nil {
		return err
	}
	upAddr := *upstream
	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		if rec == nil {
			return d.DialContext(ctx, "tcp", upAddr)
		}
		m := rec.startWall()
		c, err := d.DialContext(ctx, "tcp", upAddr)
		rec.endWall(spDial, m, 0)
		return c, err
	}
	cfg := proxy.Config{
		Upstreams: []dnstransport.PoolUpstream{{Name: "emulator", Dial: func(ctx context.Context) (dnstransport.Resolver, error) {
			var r dnstransport.Resolver = dnstransport.NewTCPClient(dial)
			if rec != nil {
				r = tracedResolver{Resolver: r, r: rec}
			}
			return r, nil
		}}},
		Pool:         dnstransport.PoolConfig{ConnsPerUpstream: 2},
		CacheEntries: 1 << 16,
	}
	if w.cacheBudget > 0 {
		cfg.CacheEntries = 0
		cfg.CacheBudget = w.cacheBudget
		cfg.CacheAdmission = "tinylfu"
	}
	if w.guard {
		// Armed, with the one client's budget far above any offered load:
		// every query pays the guard's checks and none is limited.
		cfg.Guard = &guard.Config{ClientQPS: 1e9, Burst: 1 << 30, MissRate: 1e9, MaxInflightMiss: 1 << 20}
	}
	p, err := proxy.New(cfg)
	if err != nil {
		return err
	}
	var h dnsserver.Handler = p.Handler()
	if rec != nil {
		h = tracedHandler{h: h, wr: h.(dnsserver.WireResponder), r: rec}
	}
	g, tel := p.Guard(), p.Telemetry()

	udpConns, err := listenShards(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	serveConns := udpConns
	if rec != nil {
		serveConns = make([]udpio.BatchConn, len(udpConns))
		for i, c := range udpConns {
			serveConns[i] = &tracedBatchConn{BatchConn: c, r: rec}
		}
	}
	udp := &dnsserver.UDPServer{Handler: h, Guard: g, Telemetry: tel}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		udp.ServeBatch(serveConns, 0)
	}()

	dotL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dohL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dot := &dnsserver.StreamServer{Handler: h, OutOfOrder: true, Proto: telemetry.ProtoDoT, Guard: g, Telemetry: tel}
	dotCfg := chain.ServerConfig(tls.VersionTLS13, tls.VersionTLS13)
	doh := &dnsserver.DoH{Handler: h, Guard: g, Telemetry: tel}
	dohCfg := chain.ServerConfig(tls.VersionTLS13, tls.VersionTLS13, "h2")

	// Stream connections still open at shutdown are closed, so their
	// serving loops end before the process does.
	var (
		connWG  sync.WaitGroup
		connsMu sync.Mutex
		open    = map[net.Conn]bool{}
	)
	accept := func(l net.Listener, cfg *tls.Config, serve func(ctx context.Context, c net.Conn)) {
		defer wg.Done()
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			connsMu.Lock()
			open[raw] = true
			connsMu.Unlock()
			connWG.Add(1)
			go func() {
				defer connWG.Done()
				serveTLS(raw, cfg, g, rec, serve)
				connsMu.Lock()
				delete(open, raw)
				connsMu.Unlock()
			}()
		}
	}
	wg.Add(2)
	go accept(dotL, dotCfg, func(_ context.Context, c net.Conn) { dot.ServeConn(c) })
	go accept(dohL, dohCfg, func(ctx context.Context, c net.Conn) {
		h2h, _ := doh.Bind(ctx)
		if rec != nil {
			h2h = rec.tracedH2(h2h)
		}
		(&h2.Server{Handler: h2h}).ServeConn(c)
	})

	out := json.NewEncoder(os.Stdout)
	err = out.Encode(ready{
		UDP:  udpConns[0].LocalAddr().String(),
		DoT:  dotL.Addr().String(),
		DoH:  dohL.Addr().String(),
		Root: chain.Intermediate.Raw,
	})
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if sc.Text() != "snap" {
			continue
		}
		s := takeSnapshot(p, udp)
		if rec != nil {
			s.Spans, s.Counters = rec.snapshot()
		}
		if err := out.Encode(s); err != nil {
			return err
		}
	}

	dotL.Close()
	dohL.Close()
	for _, c := range udpConns {
		c.Close()
	}
	wg.Wait()
	connsMu.Lock()
	for c := range open {
		c.Close()
	}
	connsMu.Unlock()
	connWG.Wait()
	p.Close()
	if rec != nil && *spansPath != "" {
		return rec.writeSpans(*spansPath)
	}
	return nil
}

// serveTLS runs one accepted stream connection: the TLS 1.3 handshake,
// then the transport's serving loop. In traced runs the loop goroutine is
// pinned to its thread and the connection is wrapped below and above TLS.
func serveTLS(raw net.Conn, cfg *tls.Config, g *guard.Guard, rec *recorder, serve func(ctx context.Context, c net.Conn)) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if g != nil {
		ctx = guard.NewContext(ctx, guard.ClientKey(raw.RemoteAddr()))
	}
	if rec == nil {
		tc := tls.Server(raw, cfg)
		if err := tc.Handshake(); err != nil {
			tc.Close()
			return
		}
		serve(ctx, tc)
		return
	}
	tid := lockLoop()
	below := &loopConn{Conn: raw, r: rec, tid: tid, handshake: true}
	tc := tls.Server(below, cfg)
	m := rec.startCPU()
	err := tc.Handshake()
	rec.endCPU(spHandshake, m, 0)
	below.handshake = false
	if err != nil {
		tc.Close()
		return
	}
	serve(ctx, &loopConn{Conn: tc, r: rec, tid: tid, above: true})
}

// udpBuffer is the shard sockets' kernel buffer size. At the default
// (net.core.rmem_default, 208 KiB here) a few milliseconds of proxy
// stall at the open-loop rate overflow the receive queue and drop
// queries.
const udpBuffer = 4 << 20

// listenShards is udpio.ListenShards plus socket buffers: one
// SO_REUSEPORT UDP socket per shard on one loopback port, each wrapped by
// udpio.Wrap. ListenShards itself offers no buffer option.
func listenShards(n int) ([]udpio.BatchConn, error) {
	lc := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) error {
		var serr error
		err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, 0xf /* SO_REUSEPORT */, 1)
		})
		if err != nil {
			return err
		}
		return serr
	}}
	addr := "127.0.0.1:0"
	var conns []udpio.BatchConn
	for range n {
		pc, err := lc.ListenPacket(context.Background(), "udp", addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		uc := pc.(*net.UDPConn)
		uc.SetReadBuffer(udpBuffer)
		uc.SetWriteBuffer(udpBuffer)
		addr = uc.LocalAddr().String()
		conns = append(conns, udpio.Wrap(uc))
	}
	return conns, nil
}

var runtimeSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func takeSnapshot(p *proxy.Proxy, udp *dnsserver.UDPServer) snapshot {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(runtimeSamples)
	s := snapshot{
		CPUNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		MaxRSSKB:   ru.Maxrss,
		AllocBytes: runtimeSamples[0].Value.Uint64(),
		GCCycles:   runtimeSamples[1].Value.Uint64(),
		Cache:      p.CacheStats(),
		Shards:     udp.ShardStats(),
	}
	if g := p.Guard(); g != nil {
		s.Guard = g.Report()
	}
	return s
}

package main

import (
	"bufio"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"
)

// Fixed harness parameters.
const (
	// setupSpawns is how many times a run execs the proxy to time set-up;
	// setup_s is the median.
	setupSpawns = 7
	// lateBoundUs invalidates a run whose open-loop sends ran later than
	// this at the 99th percentile: the generator has fallen behind its
	// schedule, and its latencies would time its own backlog rather than
	// the proxy. A generator short of CPU for its rate passes this within
	// a second; on the shared 2-vCPU host the benchmark was tuned on, a
	// healthy pacer ran 0.1–1 ms late at p99, and up to 16 ms while
	// something outside the benchmark halved the host's speed.
	lateBoundUs = 25000
	// ledgerTolerance bounds |ledger.unaccounted_ratio| of a traced
	// udp-hot run: the shard threads' udpio, dnsserver and dnscache
	// spans must account for the proxy process's CPU within it.
	ledgerTolerance = 0.25
	drainTimeout    = 3 * time.Second
	// freshProbeCount is how many fresh connections handshake_p50_us
	// times per run, spread over the rounds.
	freshProbeCount = 128
	// rounds is how many times an untraced run alternates its
	// closed-loop and open-loop segments.
	rounds = 8
	// refShare is the share of an untraced run's measured time spent in
	// reference loops.
	refShare = 0.15
)

type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	exe     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	out     output
	notes   []string
	invalid []string
}

func (r *result) set(name string, v float64, unit string) {
	r.out.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

func (r *result) check(ok bool, format string, a ...any) {
	if !ok {
		r.invalid = append(r.invalid, fmt.Sprintf(format, a...))
	}
}

// proxyProc is the proxy under test, a child process.
type proxyProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	dec   *json.Decoder
	ready ready
	roots *x509.CertPool
}

func startProxy(rc runConfig, upstream string, traced bool, spans string) (*proxyProc, error) {
	args := []string{"-workload", rc.w.name, "-upstream", upstream}
	if traced {
		args = append(args, "-trace", "-spans", spans)
	}
	cmd := exec.Command(rc.exe, args...)
	cmd.Env = append(os.Environ(), roleEnv+"=proxy")
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
	p := &proxyProc{cmd: cmd, stdin: stdin, dec: json.NewDecoder(bufio.NewReader(stdout))}
	if err := p.dec.Decode(&p.ready); err != nil {
		p.stop()
		return nil, fmt.Errorf("proxy did not start: %w", err)
	}
	cert, err := x509.ParseCertificate(p.ready.Root)
	if err != nil {
		p.stop()
		return nil, err
	}
	p.roots = x509.NewCertPool()
	p.roots.AddCert(cert)
	return p, nil
}

func (p *proxyProc) snap() (snapshot, error) {
	var s snapshot
	if _, err := io.WriteString(p.stdin, "snap\n"); err != nil {
		return s, err
	}
	err := p.dec.Decode(&s)
	return s, err
}

// stop closes the proxy's stdin, which makes it shut down, and waits for
// it to exit.
func (p *proxyProc) stop() error {
	p.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return errors.New("proxy did not exit; killed")
	}
}

// setUp execs the proxy and waits until every listener has answered a
// probe query, returning the elapsed time.
func setUp(rc runConfig, upstream string, traced bool, spans string) (*proxyProc, float64, error) {
	t0 := time.Now()
	p, err := startProxy(rc, upstream, traced, spans)
	if err != nil {
		return nil, 0, err
	}
	for _, probe := range []func(*proxyProc, workload) (time.Duration, error){probeUDP, probeDoT, probeDoH} {
		if _, err := probe(p, rc.w); err != nil {
			p.stop()
			return nil, 0, fmt.Errorf("set-up probe: %w", err)
		}
	}
	return p, time.Since(t0).Seconds(), nil
}

func run(rc runConfig) (*result, error) {
	res := &result{out: output{Metrics: map[string]metric{}}}
	emu, err := startEmulator()
	if err != nil {
		return nil, err
	}
	defer emu.close()
	if rc.trace {
		err = runTraced(rc, emu, res)
	} else {
		err = runE2E(rc, emu, res)
	}
	if err != nil {
		return nil, err
	}
	if bad := emu.bad.Load(); bad > 0 {
		res.check(false, "the emulator received %d queries outside the benchmark's names", bad)
	}
	res.out.Correct = len(res.invalid) == 0
	return res, nil
}

// runE2E is the untraced run: set-up timing, warm-up, then rounds of a
// closed-loop saturation segment, an open-loop segment and fresh-connection
// probes, with a reference loop before, between and after them.
func runE2E(rc runConfig, emu *emulator, res *result) error {
	var setups []float64
	var px *proxyProc
	for i := 0; i < setupSpawns; i++ {
		p, d, err := setUp(rc, emu.addr(), false, "")
		if err != nil {
			return err
		}
		setups = append(setups, d)
		if i < setupSpawns-1 {
			p.stop()
		} else {
			px = p
		}
	}
	defer px.stop()
	ref, err := startRef(rc.exe)
	if err != nil {
		return err
	}
	defer ref.stop()
	s, err := newSession(rc, px, emu)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.warm(); err != nil {
		return err
	}
	// Alternating the loops in short rounds puts a stretch in which the
	// host runs slow on both of them alike, and every segment has a
	// reference measurement on either side of it.
	refLen := max(100*time.Millisecond, time.Duration(rc.seconds*refShare/float64(2*rounds+1)*float64(time.Second)))
	segment := time.Duration(rc.seconds * (1 - refShare) / float64(2*rounds) * float64(time.Second))

	var phs []*phase
	var refs []refSpeed
	var qpsRaw, cpuRaw, p50Raw, p90Raw, p99Raw []float64
	var hsRaw [][]int64
	var hs, late []int64
	var openDone, closedDone, wire, genCPU, proxyIdleNs, refNs int64
	first, err := s.read()
	if err != nil {
		return err
	}
	last := first
	r0, err := ref.loop(refLen)
	if err != nil {
		return err
	}
	refs = append(refs, r0)
	for range rounds {
		m0, err := s.read()
		if err != nil {
			return err
		}
		closed, qps := s.closedLoop(segment)
		m1, err := s.read()
		if err != nil {
			return err
		}
		mid, err := ref.loop(refLen)
		if err != nil {
			return err
		}
		m2, err := s.read()
		if err != nil {
			return err
		}
		open, l, err := s.openLoop(segment)
		if err != nil {
			return err
		}
		m3, err := s.read()
		if err != nil {
			return err
		}
		h, err := s.freshProbes(freshProbeCount / rounds)
		if err != nil {
			return err
		}
		after, err := ref.loop(refLen)
		if err != nil {
			return err
		}
		refs = append(refs, mid, after)

		n := closed.done.Load()
		cpu := float64(m1.proxy.CPUNs-m0.proxy.CPUNs) / 1e3 / float64(n)
		qpsRaw, cpuRaw = append(qpsRaw, qps), append(cpuRaw, cpu)

		lat := slices.Clone(open.lat)
		slices.Sort(lat)
		p50, p90, p99 := pct(lat, 0.50)/1e3, pct(lat, 0.90)/1e3, pct(lat, 0.99)/1e3
		p50Raw, p90Raw, p99Raw = append(p50Raw, p50), append(p90Raw, p90), append(p99Raw, p99)
		hsRaw = append(hsRaw, h)
		late = append(late, l...)

		phs = append(phs, closed, open)
		hs = append(hs, h...)
		openDone, closedDone = openDone+open.done.Load(), closedDone+n
		wire += m1.wire - m0.wire + m3.wire - m2.wire
		genCPU += m1.genCPU - m0.genCPU + m3.genCPU - m2.genCPU
		proxyIdleNs += m2.proxy.CPUNs - m1.proxy.CPUNs
		refNs += int64(refLen)
		last = m3
	}

	// Closed-loop segment i lies between reference loops 2i and 2i+1, the
	// open-loop segment and the probes of round i between 2i+1 and 2i+2.
	var qpsN, cpuN, p50N, p90N, p99N, hsN []float64
	for i := range rounds {
		c, o := slowness(refs, 2*i), slowness(refs, 2*i+1)
		qpsN, cpuN = append(qpsN, qpsRaw[i]*c), append(cpuN, cpuRaw[i]/c)
		p50N, p90N, p99N = append(p50N, p50Raw[i]/o), append(p90N, p90Raw[i]/o), append(p99N, p99Raw[i]/o)
		for _, d := range hsRaw[i] {
			hsN = append(hsN, float64(d)/1e3/o)
		}
	}

	var failed int64
	for _, ph := range phs {
		failed += ph.failed.Load()
	}
	done := openDone + closedDone
	res.out.Attempted, res.out.Failed = done+failed, failed

	res.set("qps", median(qpsN), "1/s")
	res.set("server_cpu_us_per_query", median(cpuN), "us")
	res.set("server_maxrss_mb", float64(last.proxy.MaxRSSKB)/1024, "MB")
	res.set("wire_bytes_per_query", float64(wire)/float64(done), "B")
	res.set("handshake_p50_us", median(hsN), "us")
	res.set("setup_s", median(setups), "s")

	slices.Sort(hs)
	slices.Sort(late)
	lateP99 := pct(late, 0.99) / 1e3
	var refQPS, refCPU []float64
	for _, r := range refs {
		refQPS, refCPU = append(refQPS, r.qps), append(refCPU, r.cpuUs)
	}
	res.note("%s seed=%d: %d rounds of a %.2fs closed-loop segment, a %.2fs open-loop segment and %d fresh connections, with %d reference loops of %.2fs",
		rc.w.name, rc.seed, rounds, segment.Seconds(), segment.Seconds(), freshProbeCount/rounds, len(refs), refLen.Seconds())
	res.note("closed loop %d queries; open loop %d queries at %.0f/s offered (%d latency samples); %d fresh connections",
		closedDone, openDone, rc.w.rate, openDone, len(hs))
	res.note("reference qps %v", rounded(refQPS))
	res.note("reference cpu_us_per_query %v", rounded(refCPU))
	res.note("segments raw: qps %v", rounded(qpsRaw))
	res.note("segments raw: cpu_us_per_query %v", rounded(cpuRaw))
	res.note("segments raw: p50_us %v", rounded(p50Raw))
	res.note("segments raw: p90_us %v", rounded(p90Raw))
	res.note("segments raw: p99_us %v", rounded(p99Raw))
	// Raw medians, as measured, beside the normalized figures in the JSON.
	// The open-loop latencies are measured and printed but not bounded:
	// they time the hypervisor's stalls as much as the proxy (METRICS.md).
	res.note("raw: qps=%.1f server_cpu_us_per_query=%.3f p50_us=%.1f p90_us=%.1f p99_us=%.1f handshake_p50_us=%.1f",
		median(qpsRaw), median(cpuRaw), median(p50Raw), median(p90Raw), median(p99Raw), pct(hs, 0.50)/1e3)
	res.note("normalized: p50_us=%.1f p90_us=%.1f p99_us=%.1f", median(p50N), median(p90N), median(p99N))
	res.note("fail_ratio=%.6f gen.late_p99_us=%.1f gen.cpu_us_per_query=%.2f gen.alloc_bytes_per_query=%.1f gen.gc_cycles=%d setup_s=%v hit_ratio=%.4f upstream_queries=%d proxy_cpu_during_reference=%.4f",
		float64(failed)/float64(done+failed), lateP99, float64(genCPU)/1e3/float64(done), float64(last.genAlloc-first.genAlloc)/float64(done),
		last.genGC-first.genGC, setups, hitRatio(first.proxy, last.proxy), last.emu-first.emu, float64(proxyIdleNs)/float64(refNs))
	s.validate(res, first, last, phs, lateP99)
	return nil
}

// slowness is how much slower than nominal the host ran around the
// segment between reference loops i and i+1: the mean over those two
// loops of the geometric mean of the reference's CPU per reply and its
// inverse throughput, each relative to nominal. Costs are divided by it
// and throughput multiplied.
func slowness(refs []refSpeed, i int) float64 {
	var sum float64
	for _, r := range refs[i : i+2] {
		sum += math.Sqrt(r.cpuUs / refNominalCPUUs * refNominalQPS / r.qps)
	}
	return sum / 2
}

// runTraced measures an untraced proxy at saturation as the baseline,
// then a traced proxy through warm-up, an open-loop phase and the
// closed-loop phase whose spans give the per-layer metrics.
func runTraced(rc runConfig, emu *emulator, res *result) error {
	quarter := time.Duration(rc.seconds / 4 * float64(time.Second))
	px, _, err := setUp(rc, emu.addr(), false, "")
	if err != nil {
		return err
	}
	base, err := func() (float64, error) {
		defer px.stop()
		s, err := newSession(rc, px, emu)
		if err != nil {
			return 0, err
		}
		defer s.close()
		if err := s.warm(); err != nil {
			return 0, err
		}
		a, err := s.read()
		if err != nil {
			return 0, err
		}
		ph, _ := s.closedLoop(quarter)
		b, err := s.read()
		if err != nil {
			return 0, err
		}
		return float64(b.proxy.CPUNs-a.proxy.CPUNs) / float64(ph.done.Load()), nil
	}()
	if err != nil {
		return err
	}

	spans, err := filepath.Abs(filepath.Join(".bench_build", "spans"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(spans, 0o755); err != nil {
		return err
	}
	spans = filepath.Join(spans, fmt.Sprintf("%s-%d.jsonl", rc.w.name, rc.seed))
	px, _, err = setUp(rc, emu.addr(), true, spans)
	if err != nil {
		return err
	}
	defer px.stop()
	s, err := newSession(rc, px, emu)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.warm(); err != nil {
		return err
	}
	m0, err := s.read()
	if err != nil {
		return err
	}
	open, late, err := s.openLoop(quarter)
	if err != nil {
		return err
	}
	m1, err := s.read()
	if err != nil {
		return err
	}
	closed, qps := s.closedLoop(2 * quarter)
	m2, err := s.read()
	if err != nil {
		return err
	}
	done := open.done.Load() + closed.done.Load()
	failed := open.failed.Load() + closed.failed.Load()
	res.out.Attempted, res.out.Failed = done+failed, failed
	lateP99 := pct(late, 0.99) / 1e3
	genCPU := float64(m2.genCPU-m0.genCPU) / 1e3 / float64(done)
	l := layerMetrics(rc.w, m1, m2, closed.done.Load())
	for _, name := range perLayerNames {
		v, ok := l.values[name]
		if !ok {
			return fmt.Errorf("per-layer metric %s not computed", name)
		}
		res.set(name, v, l.units[name])
	}
	res.set("upstream.queries_per_kquery", float64(m2.emu-m0.emu)/float64(done)*1e3, "1/kquery")
	if q := m2.emu - m0.emu; q > 0 {
		res.set("upstream.handler_ns", float64(m2.emuBusy-m0.emuBusy)/float64(q), "ns")
	} else {
		res.set("upstream.handler_ns", 0, "ns")
	}
	res.set("gen.late_p99_us", lateP99, "us")
	res.set("gen.cpu_us_per_query", genCPU, "us")
	traced := float64(m2.proxy.CPUNs-m1.proxy.CPUNs) / float64(closed.done.Load())
	res.set("trace.overhead_ratio", traced/base-1, "ratio")
	res.note("%s seed=%d traced: closed loop %d queries (%.0f/s), server %.0f ns/query traced vs %.0f untraced; span log %s",
		rc.w.name, rc.seed, closed.done.Load(), qps, traced, base, spans)
	if rc.w.transport == "udp" {
		u := l.values["ledger.unaccounted_ratio"]
		res.check(u <= ledgerTolerance && u >= -ledgerTolerance,
			"ledger: udpio+dnsserver+dnscache spans leave %.3f of the traced server time unaccounted (tolerance %.2f)", u, ledgerTolerance)
	}
	s.validate(res, m0, m2, []*phase{open, closed}, lateP99)
	return nil
}

// validate applies the checks every run must pass.
func (s *session) validate(res *result, a, b reading, phs []*phase, lateP99 float64) {
	w := s.rc.w
	for _, ph := range phs {
		res.check(ph.wrong.Load() == 0, "%d wrong answers (first: %s)", ph.wrong.Load(), ph.firstBad)
	}
	if w.primed {
		res.check(b.emu == a.emu, "%d queries reached the upstream after warm-up; every query should hit the cache", b.emu-a.emu)
	}
	if w.guard {
		r := allowedRatio(a.proxy, b.proxy)
		res.check(r == 1, "guard.allowed_ratio is %.6f; the guard must let every query through", r)
	}
	res.check(lateP99 <= lateBoundUs, "generator ran %.0f µs late at p99 (bound %d µs)", lateP99, lateBoundUs)
}

func allowedRatio(a, b snapshot) float64 {
	allowed := b.Guard.Allowed - a.Guard.Allowed
	total := allowed + b.Guard.Drops - a.Guard.Drops + b.Guard.Slips - a.Guard.Slips + b.Guard.Refusals - a.Guard.Refusals
	if total == 0 {
		return 1
	}
	return float64(allowed) / float64(total)
}

func hitRatio(a, b snapshot) float64 {
	hits := b.Cache.Hits - a.Cache.Hits + b.Cache.StaleHits - a.Cache.StaleHits
	total := hits + b.Cache.Misses - a.Cache.Misses + b.Cache.Coalesced - a.Cache.Coalesced
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*100) / 100
	}
	return out
}

func pct(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if !slices.IsSorted(sorted) {
		sorted = slices.Clone(sorted)
		slices.Sort(sorted)
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

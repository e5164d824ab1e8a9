package main

// The per-layer ledger: metrics derived from the traced proxy's span and
// counter snapshots taken around the closed-loop phase. A metric whose
// layer the workload does not exercise reads 0 (every per-layer metric is
// printed on every workload); BENCHMARK.json names the workload where
// each one moves.

// perLayerNames is every per-layer metric a traced run prints, in order.
// The upstream.*, gen.* and trace.* metrics are filled in by runTraced.
var perLayerNames = []string{
	"udpio.datagrams_per_read", "udpio.syscalls_per_kquery", "udpio.syscall_ns_per_query",
	"dnsserver.udp_self_ns_per_query", "dnsserver.dot_self_ns_per_query", "dnsserver.doh_self_ns_per_query",
	"dnsserver.conn_reads_per_query", "dnsserver.conn_writes_per_query",
	"tls.handshake_us", "tls.handshakes_per_kquery", "tls.record_ns_per_query",
	"dnscache.hit_ns", "dnscache.miss_ns", "dnscache.hit_ratio", "dnscache.admission_rejects_per_miss",
	"dnscache.evictions_per_kquery", "dnscache.coalesced_per_kquery", "dnscache.arena_epochs", "dnscache.bytes_live_mb",
	"dnstransport.exchange_us", "dnstransport.exchanges_per_miss", "proxy.miss_self_ns",
	"dnstransport.dials", "dnstransport.dial_us", "guard.allowed_ratio",
	"runtime.alloc_bytes_per_query", "runtime.gc_cycles_per_kquery",
	"ledger.server_ns_per_query", "ledger.unaccounted_ratio",
}

type layers struct {
	values map[string]float64
	units  map[string]string
}

func (l *layers) set(name string, v float64, unit string) {
	l.values[name] = v
	l.units[name] = unit
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer metrics over [a, b], in which the
// generator completed q queries.
func layerMetrics(w workload, a, b reading, q int64) layers {
	l := layers{values: map[string]float64{}, units: map[string]string{}}
	fq := float64(q)
	span := func(name string) (n, ns float64) {
		return float64(b.proxy.Spans[name].N - a.proxy.Spans[name].N), float64(b.proxy.Spans[name].Ns - a.proxy.Spans[name].Ns)
	}
	counter := func(name string) float64 { return float64(b.proxy.Counters[name] - a.proxy.Counters[name]) }

	// UDP: the shard threads' CPU splits into the udpio syscalls and the
	// dnsserver batch loop, which encloses the cache's wire-path spans.
	reads, readNs := span("udpio.read")
	writes, writeNs := span("udpio.write")
	_, batchNs := span("dnsserver.udp_batch")
	hits, hitNs := span("dnscache.hit")
	_, declinedNs := span("dnscache.wire_declined")
	misses, missNs := span("dnscache.miss")
	exchanges, exchangeNs := span("dnstransport.exchange")
	var udpSelf float64
	if w.transport == "udp" {
		l.set("udpio.datagrams_per_read", ratio(counter("udpio.datagrams"), reads), "count")
		l.set("udpio.syscalls_per_kquery", ratio(reads+writes, fq)*1e3, "1/kquery")
		l.set("udpio.syscall_ns_per_query", ratio(readNs+writeNs, fq), "ns")
		udpSelf = ratio(batchNs-writeNs-hitNs-declinedNs, fq)
	} else {
		l.set("udpio.datagrams_per_read", 0, "count")
		l.set("udpio.syscalls_per_kquery", 0, "1/kquery")
		l.set("udpio.syscall_ns_per_query", 0, "ns")
	}
	l.set("dnsserver.udp_self_ns_per_query", udpSelf, "ns")

	// Streams: the connection loop's thread CPU between reads is
	// dnsserver (DoT) or the h2 read loop (DoH); TLS record work is the
	// difference between the wrappers above and below TLS.
	_, tlsReadNs := span("tls.read")
	_, connReadNs := span("conn.read")
	_, loopNs := span("dnsserver.conn_loop")
	_, tlsWLoopNs := span("tls.write_loop")
	_, connWLoopNs := span("conn.write_loop")
	_, tlsWOffNs := span("tls.write_off")
	_, connWOffNs := span("conn.write_off")
	handshakes, hsNs := span("tls.handshake")
	// Handshake cost is per handshake: averaged over the process's life,
	// since persistent connections shake hands only before the phase.
	hs := b.proxy.Spans["tls.handshake"]
	_, h2Ns := span("h2.handler")
	var dotSelf, dohSelf float64
	switch w.transport {
	case "dot":
		dotSelf = ratio(loopNs-hitNs-declinedNs-tlsWLoopNs, fq)
	case "doh":
		dohSelf = ratio(h2Ns-hitNs-declinedNs-missNs, fq)
	}
	l.set("dnsserver.dot_self_ns_per_query", dotSelf, "ns")
	l.set("dnsserver.doh_self_ns_per_query", dohSelf, "ns")
	l.set("dnsserver.conn_reads_per_query", ratio(counter("conn.reads"), fq), "count")
	l.set("dnsserver.conn_writes_per_query", ratio(counter("conn.writes"), fq), "count")
	l.set("tls.handshake_us", ratio(float64(hs.Ns), float64(hs.N))/1e3, "us")
	l.set("tls.handshakes_per_kquery", ratio(handshakes, fq)*1e3, "1/kquery")
	l.set("tls.record_ns_per_query", ratio(tlsReadNs-connReadNs+tlsWLoopNs-connWLoopNs+tlsWOffNs-connWOffNs, fq), "ns")

	// Cache and miss path.
	cs := func(f func(s snapshot) int64) float64 { return float64(f(b.proxy) - f(a.proxy)) }
	cMiss := cs(func(s snapshot) int64 { return s.Cache.Misses })
	l.set("dnscache.hit_ns", ratio(hitNs, hits), "ns")
	l.set("dnscache.miss_ns", ratio(missNs, misses), "ns")
	l.set("dnscache.hit_ratio", hitRatio(a.proxy, b.proxy), "ratio")
	l.set("dnscache.admission_rejects_per_miss", ratio(cs(func(s snapshot) int64 { return s.Cache.AdmissionRejects }), cMiss), "ratio")
	l.set("dnscache.evictions_per_kquery", ratio(cs(func(s snapshot) int64 { return s.Cache.Evictions }), fq)*1e3, "1/kquery")
	l.set("dnscache.coalesced_per_kquery", ratio(cs(func(s snapshot) int64 { return s.Cache.Coalesced }), fq)*1e3, "1/kquery")
	l.set("dnscache.arena_epochs", cs(func(s snapshot) int64 { return s.Cache.ArenaEpochs }), "count")
	l.set("dnscache.bytes_live_mb", float64(b.proxy.Cache.BytesLive)/(1<<20), "MB")
	l.set("dnstransport.exchange_us", ratio(exchangeNs, exchanges)/1e3, "us")
	l.set("dnstransport.exchanges_per_miss", ratio(exchanges, counter("dnstransport.exchange_ok")), "ratio")
	l.set("proxy.miss_self_ns", ratio(missNs-exchangeNs, misses), "ns")
	dial := b.proxy.Spans["dnstransport.dial"]
	l.set("dnstransport.dials", float64(dial.N), "count")
	l.set("dnstransport.dial_us", ratio(float64(dial.Ns), float64(dial.N))/1e3, "us")
	l.set("guard.allowed_ratio", allowedRatio(a.proxy, b.proxy), "ratio")
	l.set("runtime.alloc_bytes_per_query", ratio(float64(b.proxy.AllocBytes-a.proxy.AllocBytes), fq), "B")
	l.set("runtime.gc_cycles_per_kquery", ratio(float64(b.proxy.GCCycles-a.proxy.GCCycles), fq)*1e3, "1/kquery")

	// The ledger: the proxy process's CPU per query against what the
	// spans account for — the serving loops' thread CPU plus the
	// off-loop wall-clock spans (miss work net of upstream waits, h2
	// handlers, replies written off the loop).
	server := ratio(float64(b.proxy.CPUNs-a.proxy.CPUNs), fq)
	var accounted float64
	switch w.transport {
	case "udp":
		accounted = readNs + batchNs
	case "dot":
		accounted = tlsReadNs + loopNs + (missNs - exchangeNs) + tlsWOffNs
	case "doh":
		accounted = tlsReadNs + loopNs + hsNs + h2Ns + tlsWOffNs
	}
	l.set("ledger.server_ns_per_query", server, "ns")
	l.set("ledger.unaccounted_ratio", 1-ratio(accounted/fq, server), "ratio")
	return l
}

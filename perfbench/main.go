// Command perfbench is the repository's end-to-end benchmark: a load
// generator (with the upstream resolver emulator in the same process)
// driving the forwarding proxy, which runs in a process of its own on
// real loopback sockets.
//
//	perfbench --workload udp-hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the run's
// outcome and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics of a traced run with --trace 1. The exit status is
// non-zero on any wrong answer or when the run is invalid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
)

// roleEnv selects the proxy or the reference-responder role when the
// binary re-executes itself.
const roleEnv = "PERFBENCH_ROLE"

func main() {
	if os.Getenv(roleEnv) == "proxy" {
		if err := proxyMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench proxy:", err)
			os.Exit(1)
		}
		return
	}
	if os.Getenv(roleEnv) == "ref" {
		if err := refMain(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench reference:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload: udp-hot, dot-zipf or doh-h2")
	seed := fs.Uint64("seed", 1, "seed of the query names and the open-loop schedule")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*wname)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload udp-hot|dot-zipf|doh-h2, --seconds > 0, --trace 0|1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// The generator's own GC pauses would land in the latencies it
	// records; a larger heap target makes them rare.
	debug.SetGCPercent(400)
	rc := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, exe: exe}
	res, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	out, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.out.Correct {
		for _, why := range res.invalid {
			fmt.Fprintln(os.Stderr, "perfbench: invalid run:", why)
		}
		return 1
	}
	return 0
}

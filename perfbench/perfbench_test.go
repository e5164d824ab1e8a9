package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the proxy process and the
// reference responder the runs re-execute, exactly as the perfbench
// binary does.
func TestMain(m *testing.M) {
	role := map[string]func() error{
		"proxy": func() error { return proxyMain(os.Args[1:]) },
		"ref":   refMain,
	}[os.Getenv(roleEnv)]
	if role != nil {
		if err := role(); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// draws records what a seed determines for a workload: the open-loop
// name sequence and schedule, and each closed-loop connection's names.
func draws(w workload, seed uint64) (open, closed0, closed1 []int, due []int64) {
	on, c0, c1 := newNameStream(w, seed, 100), newNameStream(w, seed, 0), newNameStream(w, seed, 1)
	sched := newSchedule(w, seed)
	for range 20000 {
		open = append(open, on.next())
		closed0 = append(closed0, c0.next())
		closed1 = append(closed1, c1.next())
		due = append(due, sched.next())
	}
	return
}

func TestSeedDeterminesQueries(t *testing.T) {
	for _, w := range workloads {
		o1, a1, b1, d1 := draws(w, 7)
		o2, a2, b2, d2 := draws(w, 7)
		if !slices.Equal(o1, o2) || !slices.Equal(a1, a2) || !slices.Equal(b1, b2) || !slices.Equal(d1, d2) {
			t.Errorf("%s: seed 7 gave two different query sequences or schedules", w.name)
		}
		o3, a3, _, d3 := draws(w, 8)
		if slices.Equal(o1, o3) || slices.Equal(a1, a3) || slices.Equal(d1, d3) {
			t.Errorf("%s: seeds 7 and 8 gave the same draws", w.name)
		}
		if slices.Equal(a1, b1) {
			t.Errorf("%s: both closed-loop connections draw the same names", w.name)
		}
		for _, i := range o1 {
			if i < 0 || i >= w.names {
				t.Fatalf("%s: name index %d outside [0,%d)", w.name, i, w.names)
			}
		}
		// The schedule's mean rate is the workload's.
		if got := float64(len(d1)) / (float64(d1[len(d1)-1]) / 1e9); got < 0.95*w.rate || got > 1.05*w.rate {
			t.Errorf("%s: schedule rate %.0f/s, want %.0f/s", w.name, got, w.rate)
		}
	}
}

// An open loop split into segments sends the seed's one schedule: the
// offset a segment draws past its end is handed back to the next.
func TestScheduleContinuesAcrossSegments(t *testing.T) {
	w, _ := findWorkload("doh-h2")
	whole, split := newSchedule(w, 5), newSchedule(w, 5)
	for i := range 1000 {
		want := whole.next()
		if i%7 == 3 {
			split.next()
			split.unread()
		}
		if got := split.next(); got != want {
			t.Fatalf("offset %d: %d after unread, want %d", i, got, want)
		}
	}
}

func TestZipfHeadShare(t *testing.T) {
	// Zipf(s=1) over N names gives name 0 a share of 1/H(N).
	w, _ := findWorkload("dot-zipf")
	s := newNameStream(w, 1, 0)
	n, head := 200000, 0
	for range n {
		if s.next() == 0 {
			head++
		}
	}
	want := 1 / s.hN
	if got := float64(head) / float64(n); got < 0.8*want || got > 1.2*want {
		t.Errorf("share of the most popular name %.4f, want about %.4f", got, want)
	}
}

func TestEmulatorAnswerPassesCheck(t *testing.T) {
	for _, zone := range []string{"s", "m"} {
		for idx := range 500 {
			q := appendQuery(nil, uint16(idx), idx, zone)
			resp, err := emulatorAnswer(nil, q)
			if err != nil {
				t.Fatalf("%s/%d: %v", zone, idx, err)
			}
			if err := checkReply(resp, uint16(idx), idx, zone); err != nil {
				t.Fatalf("%s/%d: emulator answer fails the check: %v", zone, idx, err)
			}
			// Any change to the answer must be caught.
			for _, off := range []int{1, 3, 7, len(resp) - 1} {
				bad := slices.Clone(resp)
				bad[off] ^= 0x01
				if checkReply(bad, uint16(idx), idx, zone) == nil {
					t.Fatalf("%s/%d: corrupted byte %d passes the check", zone, idx, off)
				}
			}
			if checkReply(resp, uint16(idx), idx+1, zone) == nil {
				t.Fatalf("%s/%d: answer accepted for another name", zone, idx)
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each run is correct and prints every metric BENCHMARK.json names,
// with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns proxy processes and runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", sw.Name)
			continue
		}
		w.warmup = 0.5
		for _, traced := range []bool{false, true} {
			start := time.Now()
			res, err := run(runConfig{w: w, seed: 3, seconds: 2, trace: traced, exe: exe})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.out.Correct || res.out.Failed != 0 || res.out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d invalid=%v",
					w.name, traced, res.out.Correct, res.out.Attempted, res.out.Failed, res.invalid)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.name, traced, len(res.out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			t.Logf("%s traced=%v: %d queries in %v", w.name, traced, res.out.Attempted, time.Since(start).Round(time.Millisecond))
		}
	}
}

package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pace runs the next d of an open-loop schedule, from where an earlier
// call left it: every query whose due time has come is built by mk and
// sent, grouped per connection, by send. The runtime's timers wake
// goroutines only to about a millisecond, so the pacer pins itself to a
// thread with a 1 ns timer slack and sleeps in nanosleep. It returns how
// late each query was sent; expect sizes that record up front.
func pace(d time.Duration, sched *schedule, mk func(i int, due int64) query, send func(conn int, qs []query) error, conns, expect int) ([]int64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)

	// The schedule's offsets run on across calls; this call's first due
	// time is 1 ms from now, and the draw that falls past the end is
	// handed back for the next call.
	first := sched.next()
	start := now() + int64(time.Millisecond) - first
	end := start + first + int64(d)
	defer sched.unread()
	late := make([]int64, 0, expect)
	batches := make([][]query, conns)
	i := 0
	due := start + first
	for due < end {
		if wait := due - now(); wait > 0 {
			// A raw syscall keeps this goroutine's P while it sleeps:
			// handing the P off and taking one back on wake-up would put
			// the pacer behind the reader goroutines at every send.
			ts := syscall.NsecToTimespec(wait)
			syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
			continue
		}
		t := now()
		for due <= t && due < end {
			c := i % conns
			batches[c] = append(batches[c], mk(i, due))
			i++
			due = start + sched.next()
		}
		for c, qs := range batches {
			if len(qs) == 0 {
				continue
			}
			sent := now()
			for _, q := range qs {
				late = append(late, sent-q.due)
			}
			if err := send(c, qs); err != nil {
				return nil, err
			}
			batches[c] = qs[:0]
		}
	}
	return late, nil
}

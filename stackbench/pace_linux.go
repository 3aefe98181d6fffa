package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. It sleeps in the kernel rather than on a
// runtime timer: on an idle process the runtime's timers wake through
// the network poller, whose timeout has millisecond granularity, and a
// pacer that oversleeps by most of a millisecond would be measured as
// server latency. The thread's timer slack is cut to 1ns first (prctl
// PR_SET_TIMERSLACK), so the kernel does not defer the wake-up by its
// default 50µs. A blocked syscall hands its scheduler slot to other
// goroutines, so the sleeping pacer costs the server nothing.
func sleepUntil(t time.Time) {
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) //nolint:errcheck // best effort: the default slack only adds lateness, which is reported
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(time.Until(t))
			return
		}
	}
}

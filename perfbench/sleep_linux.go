package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. It sleeps in nanosleep on the goroutine's
// thread rather than on a runtime timer: with every P idle, the runtime
// waits for timers in epoll with millisecond resolution, which would
// make the open-loop generator up to a millisecond late on every send.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

package main

import (
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStall injects a stall into the first request of an
// open loop: the requests due during the stall must be timed from their
// due times, so each carries the wait the stall imposed on it, and the
// pacer must not count that backlog as its own lateness.
func TestOpenLoopChargesStall(t *testing.T) {
	const n = 20
	step := time.Millisecond
	stall := 40 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * step
	}
	lat := make([]time.Duration, n)
	var mu sync.Mutex
	start := time.Now().Add(5 * time.Millisecond)
	lates := openLoop(start, due, 1, func(_, i int, at time.Time) {
		if i == 0 {
			time.Sleep(stall)
		}
		mu.Lock()
		lat[i] = time.Since(at)
		mu.Unlock()
	})
	for i := 1; i < n; i++ {
		if min := stall - due[i]; lat[i] < min {
			t.Errorf("request %d due at +%v: latency %v, want at least %v (stall not charged)", i, due[i], lat[i], min)
		}
	}
	// Only the first request was waited for; every later one was already
	// overdue when the worker reached it.
	if len(lates) != 1 {
		t.Errorf("pacer recorded %d lateness samples, want 1", len(lates))
	}
}

func TestQuantileAndWindows(t *testing.T) {
	v := make([]time.Duration, 100)
	for i := range v {
		v[i] = time.Duration(100-i) * time.Millisecond
	}
	if q := quantile(v, 0.99); q != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", q)
	}
	if q := quantile(v, 0.5); q != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", q)
	}
	// Eight windows of 1000 samples; one holds a burst of slow requests.
	var s []timed
	for w := int64(0); w < 8; w++ {
		for i := 0; i < 1000; i++ {
			lat := time.Millisecond
			if w == 1 && i < 100 {
				lat = time.Second
			}
			s = append(s, timed{at: w*int64(latWindow) + int64(i), lat: lat})
		}
	}
	if got := windowQuantile(s, 0.99); got != time.Millisecond {
		t.Errorf("window p99 = %v, want 1ms (one disturbed window of eight)", got)
	}
}

func TestPeakRate(t *testing.T) {
	span := [2]int64{0, int64(4 * peakWindow)}
	var recs []reqRec
	for w := int64(0); w < 4; w++ {
		for i := int64(0); i < 10; i++ {
			end := w*int64(peakWindow) + i
			recs = append(recs, reqRec{ok: true, lat: time.Millisecond, obs: dayObs{end: end}})
		}
	}
	// Failed and too-slow operations do not count.
	recs = append(recs, reqRec{ok: false, obs: dayObs{end: 1}}, reqRec{ok: true, lat: time.Second, obs: dayObs{end: 2}})
	want := 10 / peakWindow.Seconds()
	if got := peakRate(recs, [][2]int64{span}); got != want {
		t.Errorf("peakRate = %v, want %v", got, want)
	}
}

func TestIQM(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{1, 3}, 2},
		// The stray 100 and 0 fall outside the middle half.
		{[]float64{100, 2, 4, 0, 3, 5, 2, 4}, 3.25},
	} {
		if got := iqm(c.v); got != c.want {
			t.Errorf("iqm(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

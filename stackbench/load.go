package main

import (
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// openLoop runs n scheduled items on a fixed set of workers. Item i is
// due at start+due[i]; a free worker waits for the next item's due time,
// and a busy system lets items pile up past it, so exec (which times
// each request from the due time it is handed) charges every stall to
// the requests it delayed. It returns how late each worker woke for an
// item it had waited on: the pacer's own lateness, a validity check on
// the measurement, apart from any backlog.
func openLoop(start time.Time, due []time.Duration, workers int, exec func(worker, i int, due time.Time)) []time.Duration {
	var next atomic.Int64
	lates := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if time.Until(at) > 0 {
					sleepUntil(at)
					lates[w] = append(lates[w], time.Since(at))
				}
				exec(w, i, at)
			}
		}(w)
	}
	wg.Wait()
	var all []time.Duration
	for _, l := range lates {
		all = append(all, l...)
	}
	return all
}

// closedLoop runs workers back to back, with no think time, until the
// deadline. exec performs worker w's k-th operation; next[w] is worker
// w's next k, advanced in place, so a second call continues where the
// first stopped.
func closedLoop(d time.Duration, next []int, exec func(worker, k int)) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := range next {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				exec(w, next[w])
				next[w]++
			}
		}(w)
	}
	wg.Wait()
}

// arrivals returns n Poisson arrival offsets at rate per second, drawn
// from next (a uniform [0,1) source).
func arrivals(n int, rate float64, next func() float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += -math.Log(1-next()) / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// newClient returns an HTTP client that holds at most one connection,
// so nproc workers hold at most nproc connections. Compression is
// left to the caller, which asks for gzip itself and counts the bytes as
// they arrive.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// readAll drains a response body, reusing buf.
func readAll(body io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// quantile returns the q-quantile of v by the nearest-rank rule; v is
// sorted in place.
func quantile(v []time.Duration, q float64) time.Duration {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

// iqm returns the interquartile mean of v, the mean of its middle half
// (v is sorted in place). It ignores stray samples as a median does, but
// moves smoothly where samples fall in two modes, as rolls do whose two
// shard prepares ran side by side or, with a vCPU slow to wake, one after
// the other; a median flips between the modes.
func iqm(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	lo, hi := len(v)/4, len(v)-len(v)/4
	var sum float64
	for _, x := range v[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

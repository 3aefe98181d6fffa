package main

import (
	"context"
	"fmt"
	"strconv"
	"time"
)

// This file holds what the request workloads (browse, funnel) share:
// the phase shapes, the closed-loop phase with its quiescent rolls, the
// windowed statistics, and the day-coherence check.

// Workload shape shared by the two request workloads.
const (
	// openShare of --seconds is the open-loop phase; the rest is the
	// closed-loop phase.
	openShare = 0.6
	// rollEvery spaces the fleet rolls of the open-loop phase; the first
	// fires half an interval in. A roll stalls reads for its prepare
	// time; at this spacing the stalled share stays well under 1%, so
	// read_p99_ms shows the read path's own tail until a roll gets slow
	// enough to stall more.
	rollEvery = 3 * time.Second
	// quietRolls quiescent rolls split the closed-loop phase; roll_ms is
	// their interquartile mean, as on the crawl, whose rolls fall between crawl days.
	quietRolls = 12
	// latencyLimit is the latency an operation must meet to count toward
	// peak_ops_s.
	latencyLimit = 50 * time.Millisecond
)

// reqRec is one request's measurement.
type reqRec struct {
	due   int64 // when the request was due, since the run's epoch
	lat   time.Duration
	ok    bool
	write bool
	obs   dayObs
}

// rollOffsets places the open-loop phase's fleet rolls; a phase shorter
// than the spacing still gets one, midway.
func rollOffsets(open time.Duration) []time.Duration {
	var at []time.Duration
	for t := rollEvery / 2; t < open; t += rollEvery {
		at = append(at, t)
	}
	if len(at) == 0 {
		at = append(at, open/2)
	}
	return at
}

// closed is what the closed-loop phase measured.
type closed struct {
	// off and on are the segments run untraced and traced.
	off, on [][2]int64
	rolls   []rollObs
	rollMs  []float64
}

// closedPhase runs the closed-loop phase for d in quietRolls+1 segments
// with a quiescent fleet roll between consecutive ones, so the measured
// rolls sample the whole phase rather than one moment of it. In a traced
// run the first half of the segments runs with the span recorders
// passing through and the rest recording: the untraced half gives the
// reported peak, and the two together the tracing overhead.
func (r *run) closedPhase(ctx context.Context, s *stack, d time.Duration, epoch time.Time, exec func(w, k int)) (closed, error) {
	var c closed
	next := make([]int, r.workers)
	n := quietRolls + 1
	for i := 0; i < n; i++ {
		on := r.traced && i >= n/2
		r.tr.enable(on)
		from := int64(time.Since(epoch))
		closedLoop(d/time.Duration(n), next, exec)
		span := [2]int64{from, int64(time.Since(epoch))}
		if on {
			c.on = append(c.on, span)
		} else {
			c.off = append(c.off, span)
		}
		if i == n-1 {
			break
		}
		t0 := int64(time.Since(epoch))
		dur, err := s.quietRoll(ctx)
		if err != nil {
			return c, fmt.Errorf("quiescent roll: %w", err)
		}
		day, err := s.day()
		if err != nil {
			return c, err
		}
		c.rolls = append(c.rolls, rollObs{start: t0, end: int64(time.Since(epoch)), day: int32(day)})
		c.rollMs = append(c.rollMs, ms(dur))
	}
	return c, nil
}

// Windows over which rates and tail latencies are taken; a run reports
// the interquartile mean of the windows, so one disturbance moves one
// window, not the run.
const (
	peakWindow = 250 * time.Millisecond
	latWindow  = time.Second
)

// peakRate returns the interquartile mean, over the peakWindow windows
// of the segments, of the operations completed per second within the
// latency limit.
func peakRate(recs []reqRec, segs [][2]int64) float64 {
	var rates []float64
	for _, span := range segs {
		width := peakWindow
		n := int((span[1] - span[0]) / int64(width))
		if n == 0 {
			n, width = 1, time.Duration(span[1]-span[0])
		}
		counts := make([]float64, n)
		for _, q := range recs {
			if !q.ok || q.lat > latencyLimit || q.obs.end < span[0] {
				continue
			}
			if i := int((q.obs.end - span[0]) / int64(width)); i < n {
				counts[i]++
			}
		}
		for _, c := range counts {
			rates = append(rates, c/width.Seconds())
		}
	}
	return iqm(rates)
}

// windowQuantile returns the interquartile mean, over latWindow windows
// by due time, of each window's q-quantile. Windows with fewer than 10/(1-q) samples,
// too few to resolve the quantile, are left out unless none has enough.
func windowQuantile(v []timed, q float64) time.Duration {
	if len(v) == 0 {
		return 0
	}
	byWin := map[int64][]time.Duration{}
	for _, s := range v {
		k := s.at / int64(latWindow)
		byWin[k] = append(byWin[k], s.lat)
	}
	need := int(10 / (1 - q))
	var qs []float64
	for _, w := range byWin {
		if len(w) >= need {
			qs = append(qs, float64(quantile(w, q)))
		}
	}
	if len(qs) == 0 {
		all := make([]time.Duration, len(v))
		for i, s := range v {
			all[i] = s.lat
		}
		return quantile(all, q)
	}
	return time.Duration(iqm(qs))
}

// timed is one latency sample stamped with when it was due.
type timed struct {
	at  int64
	lat time.Duration
}

// reportReads sets the latency, rate and traffic metrics shared by browse
// and funnel: latency from the open-loop phase, the peak from the closed
// loop, bytes over both. read_p50_ms and read_p99_ms are the front
// door's handling times of the GETs, the latency the serving stack adds.
// The clients' latency from each request's due time also carries how
// late the host wakes an idle vCPU, which on a small VM varies from run
// to run by more than any bound a regression gate can use; it is
// reported per layer as client.read_p50_ms and client.read_p99_ms.
func (r *run) reportReads(open, closedReqs []reqRec, front []frontSample, cl closed, lates []time.Duration, a, b window) {
	var lat, wlat []timed
	ops := 0
	for _, q := range append(open, closedReqs...) {
		r.attempted++
		if !q.ok {
			r.failed++
			continue
		}
		ops++
	}
	for _, q := range open {
		if !q.ok {
			continue
		}
		if q.write {
			wlat = append(wlat, timed{q.due, q.lat})
		} else {
			lat = append(lat, timed{q.due, q.lat})
		}
	}
	fr := reads(front)
	r.set("read_p50_ms", ms(windowQuantile(fr, 0.5)))
	r.set("read_p99_ms", ms(windowQuantile(fr, 0.99)))
	r.set("client.read_p50_ms", ms(windowQuantile(lat, 0.5)))
	r.set("client.read_p99_ms", ms(windowQuantile(lat, 0.99)))
	if len(wlat) > 0 {
		r.set("write_p50_ms", ms(windowQuantile(wlat, 0.5)))
		r.set("write_p99_ms", ms(windowQuantile(wlat, 0.99)))
	}
	peak := peakRate(closedReqs, cl.off)
	r.set("peak_ops_s", peak)
	if len(cl.on) > 0 && peak > 0 {
		r.set("trace.overhead_frac", 1-peakRate(closedReqs, cl.on)/peak)
	}
	r.set("roll_ms", iqm(cl.rollMs))
	if ops > 0 {
		r.set("bytes_per_op", float64(b.written-a.written)/float64(ops))
	}
	r.set("gen.late_p99_ms", ms(quantile(lates, 0.99)))
	r.set("gen.conns", float64(b.conns-a.conns))
	if r.attempted > 0 {
		r.set("error_frac", float64(r.failed)/float64(r.attempted))
	}
	r.note("latency from %d open-loop GETs and %d POSTs; peak from %d closed-loop requests; %d quiescent rolls", len(lat), len(wlat), len(closedReqs), len(cl.rollMs))
}

// checkCoherent verifies every response's X-Store-Day against the fleet
// rolls: a response can carry no day that had not been committed when it
// ended, nor one older than what was committed fresh seconds (plus a
// fetch's slack) before it started — an edge may serve a copy for as
// long as the shards declared it fresh, never longer.
func checkCoherent(obs []dayObs, rolls []rollObs, day0 int32, fresh time.Duration) error {
	const slack = int64(250 * time.Millisecond)
	committedBy := func(t int64) int32 {
		d := day0
		for _, rl := range rolls {
			if rl.end <= t {
				d = rl.day
			}
		}
		return d
	}
	startedBy := func(t int64) int32 {
		d := day0
		for _, rl := range rolls {
			if rl.start <= t {
				d = rl.day
			}
		}
		return d
	}
	bad := 0
	var first string
	for _, o := range obs {
		lo, hi := committedBy(o.start-int64(fresh)-slack), startedBy(o.end)
		if fresh == 0 {
			lo = committedBy(o.start)
		}
		if o.day < lo || o.day > hi {
			if bad == 0 {
				first = fmt.Sprintf("response at +%v carried day %d, want %d..%d", time.Duration(o.start), o.day, lo, hi)
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d responses carried an incoherent X-Store-Day; first: %s", bad, len(obs), first)
	}
	return nil
}

func flatten[T any](v [][]T) []T {
	var out []T
	for _, x := range v {
		out = append(out, x...)
	}
	return out
}

func detailPath(app int32) string { return "/api/v1/apps/" + strconv.Itoa(int(app)) }

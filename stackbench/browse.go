package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"planetapps/internal/gzipx"
)

// Browse: independent users replaying the APP-CLUSTERING stream through
// edge → gateway → 2 shards. The edge budget holds a small share of the
// catalog and shards advertise a freshness lifetime shorter than the
// run, so the edge hits, misses, evicts and revalidates.
const (
	browseShards = 2
	browseRate   = 3000 // events per second in the open-loop phase
	browseEdge   = 256 << 10
	browseFresh  = 2 * time.Second
	// closedEvents bounds the events pre-generated for the closed-loop
	// phase; it wraps around if the system outruns them.
	closedEvents = 200000
	sampleBodies = 200
)

func (r *run) browse() error {
	if err := checkCanary(); err != nil {
		return err
	}
	openDur := time.Duration(float64(r.seconds) * openShare * float64(time.Second))
	closedDur := time.Duration(r.seconds)*time.Second - openDur
	rollAt := rollOffsets(openDur)
	days := len(rollAt) + quietRolls + 1
	if err := checkPeriod(days, len(rollAt)+quietRolls); err != nil {
		return err
	}

	t0 := time.Now()
	nOpen := int(float64(browseRate) * openDur.Seconds())
	evs, err := genBrowse(r.seed, catalogApps, nOpen+closedEvents)
	if err != nil {
		return err
	}
	due := schedule(r.seed, nOpen, browseRate)
	r.set("gen.inputs_s", since(t0))
	r.note("inputs: %d open-loop events at %d/s over %v, %d closed-loop events, %d rolls; digest %s",
		nOpen, browseRate, openDur, closedEvents, len(rollAt), digestBrowse(evs, due))

	cfg := stackConfig{shards: browseShards, days: days, seed: r.seed, freshFor: browseFresh, edgeBytes: browseEdge}
	warmEvs := evs[nOpen:min(nOpen+2000, len(evs))]
	s, err := r.setup(cfg, func(s *stack) error {
		cs := newClients(s.base, r.workers, nil)
		defer cs.close()
		for i, e := range warmEvs {
			if rep := cs.do(i%r.workers, http.MethodGet, detailPath(e.app), e.user, e.gzip, "", nil); rep.err != nil || rep.status != http.StatusOK {
				return fmt.Errorf("warm pass: %v status %d", rep.err, rep.status)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer s.close()
	day0, err := s.day()
	if err != nil {
		return err
	}
	cs := newClients(s.base, r.workers, r.tr)
	defer cs.close()

	epoch := time.Now()
	perWorker := make([][]reqRec, r.workers)
	event := func(w int, e browseEvent, due time.Time) {
		issue := func(path string, from time.Time) time.Time {
			st := time.Now()
			rep := cs.do(w, http.MethodGet, path, e.user, e.gzip, "", nil)
			end := time.Now()
			perWorker[w] = append(perWorker[w], reqRec{
				due: int64(from.Sub(epoch)), lat: end.Sub(from), ok: rep.err == nil && rep.status == http.StatusOK,
				obs: dayObs{start: int64(st.Sub(epoch)), end: int64(end.Sub(epoch)), day: rep.day},
			})
			return end
		}
		from := issue(detailPath(e.app), due)
		if e.comments {
			from = issue(detailPath(e.app)+"/comments", from)
		}
		if e.list {
			issue("/api/v1/apps", from)
		}
	}

	a := s.snap()
	r.tr.enable(r.traced)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rolls []rollObs
	errc := make(chan error, 1)
	start := time.Now().Add(10 * time.Millisecond)
	go s.roller(ctx, epoch, start, rollAt, &rolls, errc)
	s.frontOn.Store(true)
	lates := openLoop(start, due, r.workers, func(w, i int, at time.Time) { event(w, evs[i], at) })
	s.frontOn.Store(false)
	front := s.front.take()
	if err := <-errc; err != nil {
		return fmt.Errorf("fleet roll: %w", err)
	}
	openReqs := flatten(perWorker)
	for w := range perWorker {
		perWorker[w] = nil
	}

	// Closed loop: nproc clients back to back over the events that follow.
	tail := evs[nOpen:]
	cl, err := r.closedPhase(ctx, s, closedDur, epoch, func(w, k int) {
		event(w, tail[(w+k*r.workers)%len(tail)], time.Now())
	})
	if err != nil {
		return err
	}
	rolls = append(rolls, cl.rolls...)
	closedReqs := flatten(perWorker)
	b := s.snap()
	r.tr.enable(false)

	// Correctness, outside the timed window.
	all := append(openReqs, closedReqs...)
	obs := make([]dayObs, 0, len(all))
	for _, q := range all {
		if q.ok {
			obs = append(obs, q.obs)
		}
	}
	if err := checkCoherent(obs, rolls, int32(day0), browseFresh); err != nil {
		r.fail("browse: %v", err)
	}
	// The edge may serve a copy for as long as it is fresh; once the last
	// roll is more than the freshness lifetime ago, every sampled copy
	// must be today's.
	if len(rolls) > 0 {
		sleepUntil(epoch.Add(time.Duration(rolls[len(rolls)-1].end) + browseFresh + 100*time.Millisecond))
	}
	if err := checkBodies(s, evs[:nOpen]); err != nil {
		r.fail("browse: %v", err)
	}
	r.reportReads(openReqs, closedReqs, front, cl, lates, a, b)
	r.set("heap_mb", heapMB())
	if r.traced {
		r.layerCounters(s, a, b)
		r.spanMetrics(r.tr.snapshot())
		r.setAbsent("no writes on this workload", "write_p50_ms", "write_p99_ms")
		r.setAbsent("no crawl on this workload", "crawl_day_s", "crawler.requests_per_day",
			"crawler.not_modified_frac", "resilient.retries", "resilient.attempt_p50_ms")
		r.set("wal.pending_end", float64(s.walPending()))
	}
	return nil
}

// checkBodies fetches a fixed sample of the stream's apps through the
// front door and directly from the owning shard and requires the bodies,
// after inflating, to be byte-equal.
func checkBodies(s *stack, evs []browseEvent) error {
	cs := newClients(s.base, 1, nil)
	defer cs.close()
	step := max(1, len(evs)/sampleBodies)
	checked := 0
	for i := 0; i < len(evs) && checked < sampleBodies; i += step {
		e := evs[i]
		front := cs.do(0, http.MethodGet, detailPath(e.app), e.user, e.gzip, "", nil)
		if front.err != nil || front.status != http.StatusOK {
			return fmt.Errorf("sample app %d via front door: %v status %d", e.app, front.err, front.status)
		}
		got := append([]byte(nil), front.body...)
		if front.gzip {
			var err error
			if got, err = gzipx.Decompress(got); err != nil {
				return fmt.Errorf("sample app %d: inflate: %v", e.app, err)
			}
		}
		want, day, err := s.direct(detailPath(e.app))
		if err != nil {
			return err
		}
		if err := sameBody(e.app, got, front.day, want, day); err != nil {
			return err
		}
		checked++
	}
	return nil
}

// sameBody compares one sampled body against the shard's own reply.
func sameBody(app int32, got []byte, gotDay int32, want []byte, wantDay int32) error {
	if gotDay != wantDay {
		return fmt.Errorf("sample app %d: front door served day %d, owning shard serves day %d", app, gotDay, wantDay)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("sample app %d: front door body (%d bytes) differs from the owning shard's (%d bytes)", app, len(got), len(want))
	}
	return nil
}

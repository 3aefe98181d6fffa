package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"planetapps"
	"planetapps/internal/marketsim"
	"planetapps/internal/session"
	"planetapps/internal/storeserver"
)

// Funnel: users from a session.NewPlan schedule run browse→install→rate
// funnels straight against the gateway (the edge rejects POST) over 2
// shards. Fleet rolls absorb the WAL delta mid-window; two quiescent
// drain rolls follow the window.
const (
	funnelShards = 2
	funnelRate   = 800 // requests per second in the open-loop phase
	funnelUsers  = 20000
	drainRolls   = 2
)

func (r *run) funnel() error {
	if err := checkCanary(); err != nil {
		return err
	}
	openDur := time.Duration(float64(r.seconds) * openShare * float64(time.Second))
	closedDur := time.Duration(r.seconds)*time.Second - openDur
	rollAt := rollOffsets(openDur)
	rolls := len(rollAt) + quietRolls + drainRolls
	days := rolls + 1
	if err := checkPeriod(days, rolls); err != nil {
		return err
	}

	t0 := time.Now()
	ops := genFunnel(funnelSession(r.seed, funnelUsers, catalogApps))
	nOpen := int(float64(funnelRate) * openDur.Seconds())
	if nOpen >= len(ops) {
		return fmt.Errorf("session plan of %d requests is shorter than the %d the open loop sends", len(ops), nOpen)
	}
	due := schedule(r.seed, nOpen, funnelRate)
	r.set("gen.inputs_s", since(t0))
	r.note("inputs: %d planned requests from %d users, %d open-loop at %d/s over %v, %d rolls under load, %d quiescent, %d to drain; digest %s",
		len(ops), funnelUsers, nOpen, funnelRate, openDur, len(rollAt), quietRolls, drainRolls, digestFunnel(ops, due))

	cfg := stackConfig{shards: funnelShards, days: days, seed: r.seed}
	warm := make([]int32, 0, 2000)
	for _, op := range ops[nOpen:min(nOpen+2000, len(ops))] {
		warm = append(warm, op.app)
	}
	s, err := r.setup(cfg, func(s *stack) error { return warmDetails(s, r.workers, warm) })
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
	// acked counts, per worker and app, installs acknowledged as fresh
	// writes: what the next snapshots must add to the app's downloads.
	acked := make([]map[int32]int64, r.workers)
	for w := range acked {
		acked[w] = map[int32]int64{}
	}
	exec := func(w int, op funnelOp, due time.Time) {
		st := time.Now()
		rep := doFunnelOp(cs, w, op)
		end := time.Now()
		q := reqRec{
			due: int64(due.Sub(epoch)), lat: end.Sub(due), write: op.kind != opDetail,
			obs: dayObs{start: int64(st.Sub(epoch)), end: int64(end.Sub(epoch)), day: rep.day},
		}
		switch {
		case rep.err != nil:
		case op.kind == opDetail:
			q.ok = rep.status == http.StatusOK
		case rep.status == http.StatusOK:
			q.ok = true
			if op.kind == opDownload && !bytes.Contains(rep.body, []byte(`"deduped":true`)) {
				acked[w][op.app]++
			}
		case rep.status == http.StatusConflict:
			// The natural key was taken: an expected answer to a replayed
			// write, served on the write path like an ack.
			q.ok = bytes.Contains(rep.body, []byte(`"duplicate"`))
		}
		perWorker[w] = append(perWorker[w], q)
	}

	a := s.snap()
	r.tr.enable(r.traced)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rollObsv []rollObs
	errc := make(chan error, 1)
	start := time.Now().Add(10 * time.Millisecond)
	go s.roller(ctx, epoch, start, rollAt, &rollObsv, errc)
	s.frontOn.Store(true)
	lates := openLoop(start, due, r.workers, func(w, i int, at time.Time) { exec(w, ops[i], at) })
	s.frontOn.Store(false)
	front := s.front.take()
	if err := <-errc; err != nil {
		return fmt.Errorf("fleet roll: %w", err)
	}
	openReqs := flatten(perWorker)
	for w := range perWorker {
		perWorker[w] = nil
	}
	tail := ops[nOpen:]
	cl, err := r.closedPhase(ctx, s, closedDur, epoch, func(w, k int) {
		exec(w, tail[(w+k*r.workers)%len(tail)], time.Now())
	})
	if err != nil {
		return err
	}
	rollObsv = append(rollObsv, cl.rolls...)
	closedReqs := flatten(perWorker)
	// Drain: two more quiescent rolls merge every acknowledged write.
	for i := 0; i < drainRolls; i++ {
		if _, err := s.quietRoll(ctx); err != nil {
			return fmt.Errorf("drain roll: %w", err)
		}
	}
	b := s.snap()
	r.tr.enable(false)

	r.reportReads(openReqs, closedReqs, front, cl, lates, a, b)

	// Correctness, outside the timed window.
	var obs []dayObs
	for _, q := range append(openReqs, closedReqs...) {
		if q.ok && q.obs.day != 0 {
			obs = append(obs, q.obs)
		}
	}
	if err := checkCoherent(obs, rollObsv, int32(day0), 0); err != nil {
		r.fail("funnel: %v", err)
	}
	total := map[int32]int64{}
	for _, m := range acked {
		for app, n := range m {
			total[app] += n
		}
	}
	for i, srv := range s.servers {
		ws := srv.WALStats()
		if err := checkDrained(ws.Accepted, ws.Merged, ws.Pending); err != nil {
			r.fail("funnel: shard %d: %v", i, err)
		}
	}
	if err := checkDownloads(s, total); err != nil {
		r.fail("funnel: %v", err)
	}
	r.set("heap_mb", heapMB())
	if r.traced {
		r.layerCounters(s, a, b)
		r.spanMetrics(r.tr.snapshot())
		r.setAbsent("no crawl on this workload", "crawl_day_s", "crawler.requests_per_day",
			"crawler.not_modified_frac", "resilient.retries", "resilient.attempt_p50_ms")
		r.set("wal.pending_end", float64(s.walPending()))
	}
	return nil
}

// doFunnelOp issues one funnel request.
func doFunnelOp(cs *clients, w int, op funnelOp) reply {
	if op.kind == opDetail {
		return cs.do(w, http.MethodGet, detailPath(op.app), op.user, false, "", nil)
	}
	ep := opEndpoints[op.kind]
	body := `{"user":` + strconv.Itoa(int(op.user))
	if op.rating > 0 {
		body += `,"rating":` + strconv.Itoa(int(op.rating))
	}
	body += "}"
	return cs.do(w, http.MethodPost, detailPath(op.app)+"/"+ep, op.user, false, session.IdemKey(op.user, op.app, ep), []byte(body))
}

// warmDetails is the funnel's and crawl's warm pass: detail GETs for up
// to 2000 apps, three in four asking for gzip, none of them writes.
func warmDetails(s *stack, workers int, apps []int32) error {
	cs := newClients(s.base, workers, nil)
	defer cs.close()
	for i, app := range apps[:min(2000, len(apps))] {
		if rep := cs.do(i%workers, http.MethodGet, detailPath(app), int32(i), i%4 != 0, "", nil); rep.err != nil || rep.status != http.StatusOK {
			return fmt.Errorf("warm pass: %v status %d", rep.err, rep.status)
		}
	}
	return nil
}

// checkDrained requires a shard's write-ahead log to have merged every
// acknowledged write and hold nothing back.
func checkDrained(accepted, merged, pending int64) error {
	if accepted != merged || pending != 0 {
		return fmt.Errorf("WAL after drain: accepted %d, merged %d, pending %d (want accepted == merged, pending 0)", accepted, merged, pending)
	}
	return nil
}

// checkDownloads requires every app's served download count to equal an
// unsharded reference market's, stepped to the same day, plus exactly
// the installs acknowledged for it: downloads never feed back into the
// simulation, so acknowledged writes are the only difference.
func checkDownloads(s *stack, acked map[int32]int64) error {
	prof, err := planetapps.StoreProfile(storeProfile)
	if err != nil {
		return err
	}
	mcfg := planetapps.DefaultMarketConfig(prof)
	mcfg.Days = s.cfg.days
	ref, err := marketsim.New(mcfg, s.cfg.seed)
	if err != nil {
		return err
	}
	day, err := s.day()
	if err != nil {
		return err
	}
	for ref.Day() < day {
		if err := ref.Step(); err != nil {
			return fmt.Errorf("reference market: %w", err)
		}
	}
	e := ref.Export()
	served := make(map[int32]int64, catalogApps)
	for id := int32(0); id < catalogApps; id++ {
		body, _, err := s.direct(detailPath(id))
		if err != nil {
			return err
		}
		var a storeserver.AppJSON
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("app %d detail: %w", id, err)
		}
		served[id] = a.Downloads
	}
	return compareDownloads(served, func(id int32) int64 {
		i, ok := e.IndexOf(id)
		if !ok {
			return -1
		}
		return e.Downloads(i)
	}, acked)
}

// compareDownloads checks served == reference + acked for every app.
func compareDownloads(served map[int32]int64, reference func(int32) int64, acked map[int32]int64) error {
	bad := 0
	var first string
	for id, got := range served {
		want := reference(id) + acked[id]
		if got != want {
			if bad == 0 {
				first = fmt.Sprintf("app %d serves %d downloads, want reference %d + %d acked", id, got, reference(id), acked[id])
			}
			bad++
		}
	}
	for id := range acked {
		if _, ok := served[id]; !ok {
			return fmt.Errorf("app %d has acknowledged installs but was not checked", id)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d apps lost or gained acknowledged installs; first: %s", bad, first)
	}
	return nil
}

package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"planetapps/internal/edgecache"
	"planetapps/internal/fleet"
	"planetapps/internal/gcstats"
	"planetapps/internal/storeserver"
	"planetapps/internal/wal"
)

// setupReps is how many times a run builds its stack; setup_s is the
// interquartile mean (iqm), and the last build is the one measured.
const setupReps = 7

// setup builds the stack setupReps times, each followed by the warm
// pass, records the set-up metrics and returns the last stack.
func (r *run) setup(cfg stackConfig, warm func(s *stack) error) (*stack, error) {
	var totals, markets, snaps, warms []float64
	var s *stack
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		// Each build starts from a collected heap, so earlier builds'
		// garbage does not land on its clock.
		runtime.GC()
		var st setupTimes
		var err error
		s, st, err = buildStack(cfg, r.tr)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := warm(s); err != nil {
			s.close()
			return nil, err
		}
		st.warm = time.Since(t0)
		totals = append(totals, st.total().Seconds())
		markets = append(markets, st.market.Seconds())
		snaps = append(snaps, st.snapshot.Seconds())
		warms = append(warms, st.warm.Seconds())
	}
	r.set("setup_s", iqm(totals))
	r.set("setup.market_s", iqm(markets))
	r.set("setup.snapshot_s", iqm(snaps))
	r.set("setup.warm_s", iqm(warms))
	return s, nil
}

// clients are the benchmark's own HTTP clients, one connection each.
type clients struct {
	base string
	tr   *tracer
	c    []*http.Client
	buf  [][]byte
}

func newClients(base string, n int, tr *tracer) *clients {
	cs := &clients{base: base, tr: tr, c: make([]*http.Client, n), buf: make([][]byte, n)}
	for i := range cs.c {
		cs.c[i] = newClient()
		cs.buf[i] = make([]byte, 0, 64<<10)
	}
	return cs
}

func (cs *clients) close() {
	for _, c := range cs.c {
		c.CloseIdleConnections()
	}
}

// reply is what the benchmark keeps of one response.
type reply struct {
	status int
	day    int32
	gzip   bool
	// body aliases the worker's buffer until its next request.
	body []byte
	err  error
}

// userAddr is a simulated user's client address: each user gets its own
// rate-limit bucket at the shards, as real clients would.
func userAddr(user int32) string {
	u := uint32(user)
	return "10." + strconv.Itoa(int(u>>16&0xff)) + "." + strconv.Itoa(int(u>>8&0xff)) + "." + strconv.Itoa(int(u&0xff))
}

// do issues one request on worker w's connection.
func (cs *clients) do(w int, method, path string, user int32, gzip bool, idem string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, cs.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("X-Forwarded-For", userAddr(user))
	if gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if idem != "" {
		req.Header.Set("Idempotency-Key", idem)
		req.Header.Set("Content-Type", "application/json")
	}
	var sp span
	traced := cs.tr.enabled()
	if traced {
		sp = span{id: cs.tr.newID(), kind: kClient, route: routeOf(req), start: cs.tr.now()}
		req.Header.Set(hdrSpan, strconv.FormatUint(uint64(sp.id), 10))
	}
	resp, err := cs.c[w].Do(req)
	if err != nil {
		return reply{err: err}
	}
	b, err := readAll(resp.Body, cs.buf[w])
	resp.Body.Close()
	cs.buf[w] = b
	if traced {
		sp.end = cs.tr.now()
		sp.status = uint16(resp.StatusCode)
		cs.tr.record(sp)
	}
	out := reply{status: resp.StatusCode, body: b, err: err, gzip: resp.Header.Get("Content-Encoding") == "gzip"}
	if d := resp.Header.Get("X-Store-Day"); d != "" {
		v, _ := strconv.Atoi(d)
		out.day = int32(v)
	}
	return out
}

// dayObs is one response's serving day and its time span, in
// nanoseconds since the run's epoch.
type dayObs struct {
	start, end int64
	day        int32
}

// rollObs is one fleet roll's time span and the day it committed.
type rollObs struct {
	start, end int64
	day        int32
}

// roller runs fleet rolls at fixed offsets from start, recording each.
func (s *stack) roller(ctx context.Context, epoch, start time.Time, at []time.Duration, rolls *[]rollObs, errc chan<- error) {
	for _, off := range at {
		select {
		case <-ctx.Done():
			errc <- nil
			return
		case <-time.After(time.Until(start.Add(off))):
		}
		t0 := time.Since(epoch)
		if _, err := s.roll(ctx); err != nil {
			errc <- err
			return
		}
		day, err := s.day()
		if err != nil {
			errc <- err
			return
		}
		*rolls = append(*rolls, rollObs{start: int64(t0), end: int64(time.Since(epoch)), day: int32(day)})
	}
	errc <- nil
}

// window snapshots every layer's counters at the edges of the measured
// window.
type window struct {
	gc      gcstats.Stats
	written int64
	conns   int64
	gw      fleet.Stats
	edge    edgecache.Stats
	wal     wal.Stats
	served  int64
	limited int64
	nm      int64
	carried int64
	reenc   int64
	arena   storeserver.ArenaStats
}

var storeRoutes = []string{"stats", "list", "detail", "comments", "apk"}

func (s *stack) snap() window {
	w := window{gc: gcstats.Read(), written: s.ln.written.Load(), conns: s.ln.conns.Load(), gw: s.gw.Stats()}
	if s.edge != nil {
		w.edge = s.edge.Stats()
	}
	for _, srv := range s.servers {
		ws := srv.WALStats()
		w.wal.Accepted += ws.Accepted
		w.wal.Merged += ws.Merged
		w.wal.Deduped += ws.Deduped
		w.wal.Duplicates += ws.Duplicates
		w.wal.Backpressure += ws.Backpressure
		w.wal.Pending += ws.Pending
		w.served += srv.RequestsServed()
		w.limited += srv.RateLimited()
		reg := srv.Registry()
		for _, rt := range storeRoutes {
			w.nm += reg.Counter(`store_responses_total{route="` + rt + `",code="304"}`).Value()
		}
		w.carried += reg.Counter("store_respcache_carried_total").Value()
		w.reenc += reg.Counter("store_respcache_reencoded_total").Value()
		a := srv.Arena()
		w.arena.SlabsLive += a.SlabsLive
		w.arena.SlabsReused += a.SlabsReused
		w.arena.Compactions += a.Compactions
	}
	return w
}

// layerCounters sets the counter-based per-layer metrics for the window
// [a, b].
func (r *run) layerCounters(s *stack, a, b window) {
	g := b.gc.Since(a.gc)
	r.set("gc.cpu_frac", g.CPUFraction())
	r.set("gc.cycles", float64(g.Cycles))
	r.set("gc.heap_objects", float64(b.gc.HeapObjects))

	r.set("fleet.merged_pages", float64(b.gw.MergedPages-a.gw.MergedPages))
	r.set("fleet.epoch_retries", float64(b.gw.EpochRetries-a.gw.EpochRetries))
	r.set("fleet.epoch_skews", float64(b.gw.EpochSkews-a.gw.EpochSkews))
	r.set("fleet.shard_errors", float64(b.gw.ShardErrors-a.gw.ShardErrors))

	if served := b.served - a.served; served > 0 {
		r.set("storeserver.not_modified_frac", float64(b.nm-a.nm)/float64(served))
	}
	r.set("storeserver.reencoded", float64(b.reenc-a.reenc))
	r.set("storeserver.carried", float64(b.carried-a.carried))
	r.set("storeserver.rate_limited", float64(b.limited-a.limited))

	r.set("arena.slabs_live", float64(b.arena.SlabsLive))
	r.set("arena.slabs_reused", float64(b.arena.SlabsReused-a.arena.SlabsReused))
	r.set("arena.compactions", float64(b.arena.Compactions-a.arena.Compactions))

	if s.edge != nil {
		req := float64(b.edge.Requests - a.edge.Requests)
		if req > 0 {
			r.set("edgecache.hit_frac", float64(b.edge.Hits-a.edge.Hits)/req)
			r.set("edgecache.miss_frac", float64(b.edge.Misses-a.edge.Misses)/req)
			r.set("edgecache.revalidate_frac", float64(b.edge.Revalidated-a.edge.Revalidated)/req)
			r.set("edgecache.origin_bytes_per_req", float64(b.edge.OriginBytes-a.edge.OriginBytes)/req)
		}
		r.set("edgecache.coalesced", float64(b.edge.Coalesced-a.edge.Coalesced))
		r.set("edgecache.evictions", float64(b.edge.Evictions-a.edge.Evictions))
	} else {
		r.setAbsent("no edge tier on this workload", "edgecache.self_us_p50", "edgecache.self_us_p99",
			"edgecache.hit_frac", "edgecache.miss_frac", "edgecache.revalidate_frac", "edgecache.coalesced",
			"edgecache.evictions", "edgecache.origin_bytes_per_req")
	}

	r.set("wal.accepted", float64(b.wal.Accepted-a.wal.Accepted))
	r.set("wal.deduped", float64(b.wal.Deduped-a.wal.Deduped))
	r.set("wal.duplicates", float64(b.wal.Duplicates-a.wal.Duplicates))
	r.set("wal.backpressure", float64(b.wal.Backpressure-a.wal.Backpressure))
	var cnt, sum float64
	for _, srv := range s.servers {
		h := srv.Registry().Histogram("wal_batch_records").Snapshot()
		cnt += float64(h.Count)
		sum += h.Mean() * float64(h.Count)
	}
	if cnt > 0 {
		r.set("wal.batch_records_mean", sum/cnt)
	} else {
		r.setAbsent("no writes on this workload", "wal.batch_records_mean")
	}
}

// walPending sums the records awaiting the next roll across shards.
func (s *stack) walPending() int64 {
	var n int64
	for _, srv := range s.servers {
		n += srv.WALStats().Pending
	}
	return n
}

// heapMB returns the live heap in MiB after the collector has settled:
// retired snapshots hand their arenas back from finalizers, which run
// after the collection that finds them, so the count waits for a few
// rounds of collections and finalizers before reading.
func heapMB() float64 {
	for i := 0; i < 3; i++ {
		done := make(chan struct{})
		sentinel := new([16]byte)
		runtime.SetFinalizer(sentinel, func(*[16]byte) { close(done) })
		sentinel = nil
		runtime.GC()
		select {
		case <-done:
		case <-time.After(time.Second):
		}
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

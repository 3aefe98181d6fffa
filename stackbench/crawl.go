package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"planetapps"
	"planetapps/internal/crawler"
	"planetapps/internal/db"
	"planetapps/internal/marketsim"
	"planetapps/internal/storeserver"
)

// Crawl: the paper's own measurement. The repo's crawler walks the whole
// 1mobile catalog through the gateway of 4 shards, comments on and APKs
// off, for consecutive days with a quiescent fleet roll between them. No
// edge, no writes.
const (
	crawlShards = 4
	// crawlDaysPerSecond sets the day count from --seconds: a crawl day
	// of this catalog takes about 0.7s on a 2-vCPU host, and the check
	// crawls a reference store for as many days again after the window.
	crawlDaysPerSecond = 1
	minCrawlDays       = 3
)

// crawlConfig is the crawler as the benchmark runs it: no politeness
// limit and no hedging, so the crawl measures the stack and not the
// limiter; one fetch worker beside the listing walker, so it holds at
// most nproc connections.
func crawlConfig(base string, nproc int) crawler.Config {
	cfg := crawler.DefaultConfig(base)
	cfg.Workers = max(1, nproc-1)
	cfg.RatePerSec = 0
	cfg.HedgeAfter = 0
	cfg.FetchComments = true
	cfg.FetchAPKs = false
	return cfg
}

func (r *run) crawl() error {
	if err := checkCanary(); err != nil {
		return err
	}
	days := max(minCrawlDays, r.seconds*crawlDaysPerSecond)
	rolls := days - 1
	period := days + 1
	if err := checkPeriod(period, rolls); err != nil {
		return err
	}
	t0 := time.Now()
	r.note("inputs: %d crawl days over %d shards, %d rolls; digest %s", days, crawlShards, rolls, digestCrawl(days, crawlShards))
	r.set("gen.inputs_s", since(t0))

	cfg := stackConfig{shards: crawlShards, days: period, seed: r.seed}
	s, err := r.setup(cfg, func(s *stack) error {
		warm := make([]int32, 2000)
		for i := range warm {
			warm[i] = int32(i * 7 % catalogApps)
		}
		return warmDetails(s, r.workers, warm)
	})
	if err != nil {
		return err
	}
	defer s.close()
	c, err := crawler.New(crawlConfig(s.base, r.workers), db.New())
	if err != nil {
		return err
	}
	ctx := context.Background()

	a := s.snap()
	s.frontOn.Store(true)
	var daySec, offDays, onDays, rollMs, reqs []float64
	var lat [][]timed
	var prev crawler.Stats
	var last crawler.Stats
	for d := 0; d < days; d++ {
		// A traced run alternates untraced and traced days after the
		// first, full-transfer day, to measure its own overhead.
		on := r.traced && d%2 == 1
		r.tr.enable(on)
		start := time.Now()
		err := r.tr.timeCall(ctx, kCrawlDay, func(ctx context.Context) error {
			var err error
			last, err = c.CrawlDay(ctx)
			return err
		})
		el := time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("crawl day %d: %w", d, err)
		}
		daySec = append(daySec, el)
		if d > 0 {
			if on {
				onDays = append(onDays, el)
			} else {
				offDays = append(offDays, el)
			}
		}
		reqs = append(reqs, float64(last.Requests-prev.Requests))
		prev = last
		lat = append(lat, reads(s.front.take()))
		if d < days-1 {
			dur, err := s.roll(ctx)
			if err != nil {
				return fmt.Errorf("roll after crawl day %d: %w", d, err)
			}
			rollMs = append(rollMs, ms(dur))
		}
	}
	r.tr.enable(false)
	s.frontOn.Store(false)
	b := s.snap()

	var total float64
	for _, v := range daySec {
		total += v
	}
	r.attempted = int(last.Requests)
	r.failed = int(last.Retries)
	// Latency per crawl day, then the interquartile mean over days, like the request
	// workloads' windows.
	var p50s, p99s []float64
	for _, day := range lat {
		v := make([]time.Duration, len(day))
		for i, x := range day {
			v[i] = x.lat
		}
		p50s = append(p50s, ms(quantile(v, 0.5)))
		p99s = append(p99s, ms(quantile(v, 0.99)))
	}
	r.set("read_p50_ms", iqm(p50s))
	r.set("read_p99_ms", iqm(p99s))
	rates := make([]float64, len(reqs))
	for i := range reqs {
		rates[i] = reqs[i] / daySec[i]
	}
	r.set("peak_ops_s", iqm(rates))
	r.set("roll_ms", iqm(rollMs))
	r.set("bytes_per_op", float64(b.written-a.written)/float64(last.Requests))
	r.set("crawl_day_s", iqm(append([]float64(nil), offDays...)))
	if len(onDays) > 0 {
		r.set("trace.overhead_frac", iqm(onDays)/iqm(offDays)-1)
	}
	r.set("crawler.requests_per_day", iqm(reqs))
	r.set("crawler.not_modified_frac", float64(last.NotModified)/float64(last.Requests))
	r.set("resilient.retries", float64(last.Retries))
	r.set("resilient.attempt_p50_ms", last.Client.LatencyP50MS)
	r.set("error_frac", float64(last.Retries)/float64(last.Requests))
	r.set("gen.conns", float64(b.conns-a.conns))
	r.note("crawl: %d days, %d requests, %d apps, day %.3fs (iqm); front-door latency from about %d requests",
		days, last.Requests, last.Apps, iqm(daySec), len(lat)*int(iqm(reqs)))

	// Correctness, outside the timed window: the crawled database must
	// equal one crawled from an unsharded single node of the same seed.
	if err := r.checkCrawl(s, c.DB(), days); err != nil {
		r.fail("crawl: %v", err)
	}
	r.set("heap_mb", heapMB())
	if r.traced {
		r.layerCounters(s, a, b)
		r.spanMetrics(r.tr.snapshot())
		r.setAbsent("no writes on this workload", "write_p50_ms", "write_p99_ms")
		r.setAbsent("the crawl is a closed loop; no pacer", "gen.late_p99_ms")
		r.setAbsent("the crawler's own client cannot be wrapped; its latency is read at the front door", "client.read_p50_ms", "client.read_p99_ms")
		r.set("wal.pending_end", float64(s.walPending()))
	}
	return nil
}

// checkCrawl crawls an unsharded reference store for the same days and
// compares the two databases.
func (r *run) checkCrawl(s *stack, got *db.DB, days int) error {
	prof, err := planetapps.StoreProfile(storeProfile)
	if err != nil {
		return err
	}
	mcfg := planetapps.DefaultMarketConfig(prof)
	mcfg.Days = s.cfg.days
	m, err := marketsim.New(mcfg, s.cfg.seed)
	if err != nil {
		return err
	}
	cs, err := planetapps.GenerateComments(m.Catalog(), commentUsers, s.cfg.seed+1)
	if err != nil {
		return err
	}
	srv := storeserver.New(m, storeserver.Config{PageSize: pageSize})
	srv.SetComments(cs)
	ref := &stack{}
	if err := ref.listen(srv.Handler()); err != nil {
		return err
	}
	defer ref.close()
	c, err := crawler.New(crawlConfig(ref.base, r.workers), db.New())
	if err != nil {
		return err
	}
	for d := 0; d < days; d++ {
		if _, err := c.CrawlDay(context.Background()); err != nil {
			return fmt.Errorf("reference crawl day %d: %w", d, err)
		}
		if d < days-1 {
			if err := srv.AdvanceDay(); err != nil {
				return fmt.Errorf("reference roll: %w", err)
			}
		}
	}
	return sameDB(got, c.DB())
}

// sameDB compares two crawl databases row for row: apps with their daily
// history, and comments as a set (worker interleaving orders them).
func sameDB(got, want *db.DB) error {
	g, err := canonicalDB(got)
	if err != nil {
		return err
	}
	w, err := canonicalDB(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("crawled database (%d apps, %d comments, %d canonical bytes) differs from the single-node reference (%d apps, %d comments, %d bytes)",
			got.NumApps(), got.NumComments(), len(g), want.NumApps(), want.NumComments(), len(w))
	}
	return nil
}

func canonicalDB(d *db.DB) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, a := range d.Apps() {
		if err := enc.Encode(a); err != nil {
			return nil, err
		}
	}
	cs := d.Comments()
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].App != cs[j].App {
			return cs[i].App < cs[j].App
		}
		if cs[i].User != cs[j].User {
			return cs[i].User < cs[j].User
		}
		return cs[i].UnixTime < cs[j].UnixTime
	})
	for _, c := range cs {
		if err := enc.Encode(c); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

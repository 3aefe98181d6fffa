package main

import (
	"time"
)

// spanMetrics derives the span-based per-layer metrics: self times per
// layer and route, shard service times, the scatter spread of merged
// pages, and the share of each crawl day spent walking the listing.
func (r *run) spanMetrics(spans []span) {
	r.set("trace.spans", float64(len(spans)))
	self := selfTimes(spans)
	pos := make(map[uint32]int, len(spans))
	for i, s := range spans {
		pos[s.id] = i
	}
	childEnds := map[int][]int64{}
	for _, s := range spans {
		if s.kind != kGatewayShard {
			continue
		}
		if p, ok := pos[s.parent]; ok {
			childEnds[p] = append(childEnds[p], s.end)
		}
	}
	var edge, proxy, merge, spread, detail, comments, page, post, prepare, commit []time.Duration
	var days [][2]int64
	var lists [][2]int64
	for i, s := range spans {
		d := time.Duration(s.end - s.start)
		st := time.Duration(self[i])
		switch s.kind {
		case kEdge:
			edge = append(edge, st)
		case kGateway:
			switch s.route {
			case rcDetail, rcComments, rcPost:
				proxy = append(proxy, st)
			case rcList:
				lists = append(lists, [2]int64{s.start, s.end})
				if ends := childEnds[i]; len(ends) > 1 {
					merge = append(merge, st)
					lo, hi := ends[0], ends[0]
					for _, e := range ends {
						lo, hi = min(lo, e), max(hi, e)
					}
					spread = append(spread, time.Duration(hi-lo))
				}
			}
		case kShard:
			switch s.route {
			case rcDetail:
				detail = append(detail, d)
			case rcComments:
				comments = append(comments, d)
			case rcList:
				page = append(page, d)
			case rcPost:
				post = append(post, d)
			case rcPrepare:
				prepare = append(prepare, d)
			case rcCommit:
				commit = append(commit, d)
			}
		case kCrawlDay:
			days = append(days, [2]int64{s.start, s.end})
		}
	}
	r.setQuantiles(edge, "no edge spans on this workload", []qm{{"edgecache.self_us_p50", 0.5, us}, {"edgecache.self_us_p99", 0.99, us}})
	r.setQuantiles(proxy, "no proxied requests on this workload", []qm{{"fleet.proxy_self_us_p50", 0.5, us}})
	r.setQuantiles(merge, "no merged listing pages on this workload", []qm{{"fleet.merge_self_ms_p50", 0.5, ms}, {"fleet.merge_self_ms_p99", 0.99, ms}})
	r.setQuantiles(spread, "no merged listing pages on this workload", []qm{{"fleet.scatter_spread_ms", 0.5, ms}})
	r.setQuantiles(detail, "no detail requests on this workload", []qm{{"storeserver.detail_us_p50", 0.5, us}})
	r.setQuantiles(comments, "no comment requests on this workload", []qm{{"storeserver.comments_us_p50", 0.5, us}})
	r.setQuantiles(page, "no listing requests reached a shard", []qm{{"storeserver.page_us_p50", 0.5, us}})
	r.setQuantiles(post, "no writes on this workload", []qm{{"wal.post_us_p50", 0.5, us}, {"wal.post_us_p99", 0.99, us}})
	r.setQuantiles(prepare, "no day-rolls traced", []qm{{"storeserver.prepare_ms", 0.5, ms}})
	r.setQuantiles(commit, "no day-rolls traced", []qm{{"storeserver.commit_ms", 0.5, ms}})
	if len(days) == 0 {
		r.setAbsent("no crawl on this workload", "crawler.walk_share")
		return
	}
	var dayTotal, walk int64
	for _, d := range days {
		dayTotal += d[1] - d[0]
		for _, l := range lists {
			if l[0] >= d[0] && l[1] <= d[1] {
				walk += l[1] - l[0]
			}
		}
	}
	r.set("crawler.walk_share", float64(walk)/float64(dayTotal))
}

// qm names one quantile of a sample and its unit conversion.
type qm struct {
	name string
	q    float64
	conv func(time.Duration) float64
}

func (r *run) setQuantiles(v []time.Duration, absent string, want []qm) {
	for _, m := range want {
		if len(v) == 0 {
			r.setAbsent(absent, m.name)
			continue
		}
		r.set(m.name, m.conv(quantile(v, m.q)))
	}
}

package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kClient       spanKind = iota // one request issued by the benchmark's own client
	kEdge                         // edgecache handler
	kEdgeOrigin                   // edge -> origin round trip
	kGateway                      // fleet gateway handler, any route
	kGatewayShard                 // gateway -> shard round trip
	kShard                        // fleet.ShardNode handler, any route
	kCrawlDay                     // one crawler.CrawlDay
	kRoll                         // one fleet.AdvanceFleet
	numKinds
)

var kindNames = [numKinds]string{"client", "edge", "edge.origin", "gateway", "gateway.shard", "shard", "crawl.day", "roll"}

// Route classes recorded with gateway and shard spans.
const (
	rcOther uint8 = iota
	rcDetail
	rcComments
	rcList
	rcStats
	rcPost
	rcPrepare
	rcCommit
	numRoutes
)

var routeNames = [numRoutes]string{"other", "detail", "comments", "list", "stats", "post", "prepare", "commit"}

// routeOf classifies a request the way the store's router does.
func routeOf(r *http.Request) uint8 {
	p := r.URL.Path
	switch {
	case p == "/admin/prepare":
		return rcPrepare
	case p == "/admin/commit":
		return rcCommit
	case r.Method == http.MethodPost:
		return rcPost
	case strings.HasSuffix(p, "/comments"):
		return rcComments
	case p == "/api/v1/apps" || p == "/api/apps":
		return rcList
	case p == "/api/v1/stats" || p == "/api/stats":
		return rcStats
	case strings.HasPrefix(p, "/api/v1/apps/") || strings.HasPrefix(p, "/api/apps/"):
		return rcDetail
	}
	return rcOther
}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch; parent 0 marks a root.
type span struct {
	id, parent uint32
	kind       spanKind
	route      uint8
	status     uint16
	start, end int64
}

// tracer keeps spans in memory for the run. While off, every wrapper
// passes straight through, which is how a traced run measures its own
// untraced baseline for the overhead figure.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// enabled reports whether spans are being recorded; a nil tracer never is.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// enable turns recording on or off; a nil tracer stays off.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint32 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

// withSpan carries the current span id in a request context; the
// in-memory hops (HandlerTransport) hand the context to the next tier.
func withSpan(ctx context.Context, id uint32) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint32 {
	id, _ := ctx.Value(spanKey{}).(uint32)
	return id
}

// hdrSpan carries the client's span id over the one real socket hop
// (client -> front door), where no context crosses.
const hdrSpan = "X-Bench-Span"

// statusRecorder captures the status a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

// traceHandler records a span of kind k around h. The parent comes from
// the request context, else from the client's span header.
func (t *tracer) traceHandler(k spanKind, h http.Handler, onEnter func(r *http.Request, id uint32) func()) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent := spanFrom(r.Context())
		if parent == 0 {
			if v := r.Header.Get(hdrSpan); v != "" {
				p, _ := strconv.ParseUint(v, 10, 32)
				parent = uint32(p)
			}
		}
		id := t.newID()
		s := span{id: id, parent: parent, kind: k, route: routeOf(r), start: t.now()}
		var leave func()
		if onEnter != nil {
			leave = onEnter(r, id)
		}
		rec := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(rec, r.WithContext(withSpan(r.Context(), id)))
		if leave != nil {
			leave()
		}
		s.end = t.now()
		s.status = uint16(rec.code)
		t.record(s)
	})
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// traceTransport records a span of kind k around each round trip through
// rt. parentOf finds the parent span when the caller's context does not
// carry one (the edge fetches on a fresh context).
func (t *tracer) traceTransport(k spanKind, rt http.RoundTripper, parentOf func(*http.Request) uint32) http.RoundTripper {
	if t == nil {
		return rt
	}
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if !t.on.Load() {
			return rt.RoundTrip(r)
		}
		parent := spanFrom(r.Context())
		if parent == 0 && parentOf != nil {
			parent = parentOf(r)
		}
		id := t.newID()
		s := span{id: id, parent: parent, kind: k, route: routeOf(r), start: t.now()}
		resp, err := rt.RoundTrip(r.WithContext(withSpan(r.Context(), id)))
		s.end = t.now()
		if resp != nil {
			s.status = uint16(resp.StatusCode)
		}
		t.record(s)
		return resp, err
	})
}

// timeCall records a root span of kind k around fn and passes fn a
// context carrying it.
func (t *tracer) timeCall(ctx context.Context, k spanKind, fn func(ctx context.Context) error) error {
	if !t.enabled() {
		return fn(ctx)
	}
	id := t.newID()
	s := span{id: id, parent: spanFrom(ctx), kind: k, start: t.now()}
	err := fn(withSpan(ctx, id))
	s.end = t.now()
	t.record(s)
	return err
}

// flightIndex maps in-flight edge requests to their spans, keyed by the
// request URI and encoding variant. The edge fetches from its origin on
// a fresh context (one fetch serves every coalesced follower), so the
// origin round trip finds its parent here: single-flight guarantees one
// origin fetch per key at a time, made by the first of the waiting
// requests.
type flightIndex struct {
	mu sync.Mutex
	m  map[string][]uint32
}

func flightKey(uri string, gzip bool) string {
	if gzip {
		return uri + "\x00gzip"
	}
	return uri
}

func (f *flightIndex) enter(r *http.Request, id uint32) func() {
	key := flightKey(r.URL.RequestURI(), strings.Contains(r.Header.Get("Accept-Encoding"), "gzip"))
	f.mu.Lock()
	if f.m == nil {
		f.m = map[string][]uint32{}
	}
	f.m[key] = append(f.m[key], id)
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		ids := f.m[key]
		for i, v := range ids {
			if v == id {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(f.m, key)
		} else {
			f.m[key] = ids
		}
		f.mu.Unlock()
	}
}

func (f *flightIndex) parentOf(r *http.Request) uint32 {
	key := flightKey(r.URL.RequestURI(), r.Header.Get("Accept-Encoding") == "gzip")
	f.mu.Lock()
	defer f.mu.Unlock()
	if ids := f.m[key]; len(ids) > 0 {
		return ids[0]
	}
	return 0
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children running in parallel (a gateway
// scatter) are counted once: their intervals are merged before being
// subtracted, and clipped to the parent's interval.
func selfTimes(spans []span) []int64 {
	pos := make(map[uint32]int, len(spans))
	for i, s := range spans {
		pos[s.id] = i
	}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.parent == 0 {
			continue
		}
		if p, ok := pos[s.parent]; ok {
			children[p] = append(children[p], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s.start, s.end, children[i])
	}
	return self
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans as gzipped tab-separated lines:
// id, parent, name, route, status, start_ns, end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(bw, "id\tparent\tname\troute\tstatus\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%s\t%d\t%d\t%d\n", s.id, s.parent, kindNames[s.kind], routeNames[s.route], s.status, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

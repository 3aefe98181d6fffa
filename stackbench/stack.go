package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"planetapps"
	"planetapps/internal/edgecache"
	"planetapps/internal/fleet"
	"planetapps/internal/marketsim"
	"planetapps/internal/storeserver"
)

// The store every workload serves: the paper's 1mobile profile at full
// size, with a generated comment population.
const (
	storeProfile = "1mobile"
	commentUsers = 5000
	pageSize     = 100
)

// stackConfig shapes one stack.
type stackConfig struct {
	shards int
	// days is every market's simulation period; it must cover every roll
	// the run performs (see checkPeriod).
	days int
	seed uint64
	// freshFor is the freshness lifetime shards advertise (0 = always
	// revalidate).
	freshFor time.Duration
	// edgeBytes, when > 0, fronts the gateway with an edge cache of that
	// byte budget.
	edgeBytes int64
}

// setupTimes splits one stack build into its parts.
type setupTimes struct {
	market, snapshot, gateway, warm time.Duration
}

func (s setupTimes) total() time.Duration { return s.market + s.snapshot + s.gateway + s.warm }

// stack is the serving system under test, built in-process from the
// repo's public constructors: N store servers behind fleet shard nodes,
// a gateway over in-memory transports, optionally an edge cache in
// front, and a loopback TCP listener as the front door.
type stack struct {
	cfg     stackConfig
	servers []*storeserver.Server
	// shards are the gateway's clients; admin are the roll coordinator's
	// (same nodes, no gateway span wrapping).
	shards  []fleet.ShardClient
	admin   []fleet.ShardClient
	gw      *fleet.Gateway
	edge    *edgecache.Server
	numApps int

	tr      *tracer
	flights flightIndex

	ln      *countingListener
	httpSrv *http.Server
	served  sync.WaitGroup
	base    string

	// front records each request's handling time at the front door while
	// frontOn is set: the serving stack's own share of a request's
	// latency, free of the client host's scheduling delays.
	front   frontLog
	frontOn atomic.Bool
	opened  time.Time
}

// checkPeriod fails fast when a run's rolls would outlive the market's
// simulation period: marketsim refuses to step past its last day, and a
// benchmark that stopped rolling would measure a different system.
func checkPeriod(days, rolls int) error {
	if rolls > days-1 {
		return fmt.Errorf("market period of %d days cannot hold %d day-rolls; size Days to at least %d", days, rolls, rolls+1)
	}
	return nil
}

// buildStack builds the stack and opens its front door. tr may be nil
// (untraced run).
func buildStack(cfg stackConfig, tr *tracer) (*stack, setupTimes, error) {
	var st setupTimes
	prof, err := planetapps.StoreProfile(storeProfile)
	if err != nil {
		return nil, st, err
	}
	mcfg := planetapps.DefaultMarketConfig(prof)
	mcfg.Days = cfg.days
	ring := fleet.NewRing(cfg.shards, 0)
	s := &stack{cfg: cfg, tr: tr}

	// Every shard runs the same deterministic market and serves the slice
	// the ring assigns it.
	t0 := time.Now()
	markets := make([]*marketsim.Market, cfg.shards)
	for k := range markets {
		if markets[k], err = marketsim.New(mcfg, cfg.seed); err != nil {
			return nil, st, fmt.Errorf("shard %d market: %w", k, err)
		}
	}
	st.market = time.Since(t0)

	t0 = time.Now()
	cs, err := planetapps.GenerateComments(markets[0].Catalog(), commentUsers, cfg.seed+1)
	if err != nil {
		return nil, st, err
	}
	for k, m := range markets {
		name := "shard-" + strconv.Itoa(k)
		srv := storeserver.New(m, storeserver.Config{
			PageSize: pageSize,
			// The limiter stays in the path at a rate no simulated client
			// reaches, so its cost is measured and any 429 is an error.
			RatePerSec: 1e6,
			Burst:      1 << 20,
			FreshFor:   cfg.freshFor,
			Node:       name,
			Partition:  marketsim.NewPartitioner(ring.OwnsFunc(k)),
		})
		srv.SetComments(cs)
		node := fleet.NewShardNode(srv)
		h := tr.traceHandler(kShard, node, nil)
		s.servers = append(s.servers, srv)
		s.shards = append(s.shards, fleet.ShardClient{
			Name: name,
			Base: "http://" + name,
			HTTP: &http.Client{Transport: tr.traceTransport(kGatewayShard, fleet.HandlerTransport{Handler: h}, nil)},
			Reg:  srv.Registry(),
		})
		s.admin = append(s.admin, fleet.ShardClient{
			Name: name,
			Base: "http://" + name,
			HTTP: &http.Client{Transport: fleet.HandlerTransport{Handler: h}},
		})
	}
	s.numApps = markets[0].Catalog().NumApps()
	st.snapshot = time.Since(t0)

	t0 = time.Now()
	s.gw = fleet.NewGateway(fleet.Config{Shards: s.shards, PageSize: pageSize})
	front := tr.traceHandler(kGateway, s.gw, nil)
	if cfg.edgeBytes > 0 {
		s.edge, err = edgecache.New(edgecache.Config{
			Origin:          "http://gateway",
			CapacityBytes:   cfg.edgeBytes,
			OriginTransport: tr.traceTransport(kEdgeOrigin, fleet.HandlerTransport{Handler: front}, s.flights.parentOf),
			Seed:            cfg.seed,
		})
		if err != nil {
			return nil, st, err
		}
		var enter func(*http.Request, uint32) func()
		if tr != nil {
			enter = s.flights.enter
		}
		front = tr.traceHandler(kEdge, s.edge.Handler(), enter)
	}
	if err := s.listen(front); err != nil {
		s.close()
		return nil, st, err
	}
	st.gateway = time.Since(t0)
	return s, st, nil
}

// listen serves h on a loopback TCP port: the one real socket hop.
func (s *stack) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("front door: %w", err)
	}
	s.ln = &countingListener{Listener: ln}
	s.base = "http://" + ln.Addr().String()
	s.opened = time.Now()
	s.httpSrv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.frontOn.Load() {
			t0 := time.Now()
			h.ServeHTTP(w, r)
			s.front.add(frontSample{at: int64(t0.Sub(s.opened)), dur: time.Since(t0), read: r.Method == http.MethodGet})
			return
		}
		h.ServeHTTP(w, r)
	})}
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		if err := s.httpSrv.Serve(s.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "front door:", err)
		}
	}()
	return nil
}

// close stops the front door and waits for it, and stops the edge.
func (s *stack) close() {
	if s.httpSrv != nil {
		s.httpSrv.Close() //nolint:errcheck // listener close errors carry nothing actionable here
		s.served.Wait()
	}
	if s.edge != nil {
		s.edge.Close()
	}
}

// roll advances the fleet one day through the two-phase swap.
func (s *stack) roll(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	err := s.tr.timeCall(ctx, kRoll, func(ctx context.Context) error {
		_, err := fleet.AdvanceFleet(ctx, s.admin)
		return err
	})
	return time.Since(t0), err
}

// quietRoll is a measured roll with no traffic: it starts from a
// collected heap, so a collection the previous phase left due does not
// land on one roll's clock and not another's.
func (s *stack) quietRoll(ctx context.Context) (time.Duration, error) {
	runtime.GC()
	return s.roll(ctx)
}

// day returns the fleet's serving day, failing if the shards disagree.
func (s *stack) day() (int, error) {
	d := s.servers[0].Day()
	for _, srv := range s.servers[1:] {
		if srv.Day() != d {
			return 0, fmt.Errorf("fleet incoherent: shard days %d and %d", d, srv.Day())
		}
	}
	return d, nil
}

// countingListener counts connections accepted and response bytes
// written on them: the wire bytes every workload's bytes_per_op reads.
type countingListener struct {
	net.Listener
	conns   atomic.Int64
	written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	return &countingConn{Conn: c, n: &l.written}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// frontSample is one request's handling time at the front door.
type frontSample struct {
	at   int64 // start, in nanoseconds since the front door opened
	dur  time.Duration
	read bool
}

// frontLog is a concurrency-safe list of front-door samples.
type frontLog struct {
	mu sync.Mutex
	v  []frontSample
}

func (l *frontLog) add(x frontSample) {
	l.mu.Lock()
	l.v = append(l.v, x)
	l.mu.Unlock()
}

// take returns the samples recorded so far and starts a new list.
func (l *frontLog) take() []frontSample {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := l.v
	l.v = nil
	return v
}

// reads returns the read requests' samples as timed latencies.
func reads(v []frontSample) []timed {
	out := make([]timed, 0, len(v))
	for _, x := range v {
		if x.read {
			out = append(out, timed{at: x.at, lat: x.dur})
		}
	}
	return out
}

// direct fetches path from the owning shard's node, bypassing edge and
// gateway, identity-encoded.
func (s *stack) direct(path string) ([]byte, int32, error) {
	id, err := strconv.Atoi(path[len("/api/v1/apps/"):])
	if err != nil {
		return nil, 0, err
	}
	c := s.admin[s.gw.Ring().Owner(int32(id))]
	resp, err := c.HTTP.Get(c.Base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("direct %s: %v status %d", path, err, resp.StatusCode)
	}
	day, _ := strconv.Atoi(resp.Header.Get("X-Store-Day"))
	return body, int32(day), nil
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"planetapps/internal/model"
	"planetapps/internal/rng"
	"planetapps/internal/session"
)

// The inputs every workload replays are generated from the seed before
// the timed window, by the repo's own model and session code. Their
// digest is printed with the results, and a canary digest at a fixed
// seed is checked against the value recorded below: if model, dist or
// session code changes what the benchmark sends, runs fail as a changed
// workload instead of reporting a faster system.

// catalogApps is the 1mobile catalog size on day 0; every generated
// request names an app that exists from the first day on.
const catalogApps = 15000

// browseEvent is one user event of the browse workload: a detail GET,
// optionally followed by the app's comments and the first listing page.
type browseEvent struct {
	user, app      int32
	gzip           bool
	comments, list bool
}

// browseModel is the APP-CLUSTERING stream the browse workload replays,
// at the 1mobile profile's fitted parameters.
func browseModel(apps int) model.Config {
	return model.Config{
		Apps: apps, Users: 50000, DownloadsPerUser: 8,
		ZipfGlobal: 0.95, ZipfCluster: 1.4, ClusterP: 0.95, Clusters: 30,
	}
}

// genBrowse draws n events from the model stream. Three clients in four
// ask for gzip; one event in 8 also fetches comments, one in 16 the
// first listing page.
func genBrowse(seed uint64, apps, n int) ([]browseEvent, error) {
	sim, err := model.NewSimulator(model.AppClustering, browseModel(apps))
	if err != nil {
		return nil, err
	}
	out := make([]browseEvent, 0, n)
	sim.Stream(seed, func(e model.Event) bool {
		i := len(out)
		out = append(out, browseEvent{
			user: e.User, app: e.App,
			gzip:     e.User%4 != 0,
			comments: i%8 == 7,
			list:     i%16 == 15,
		})
		return len(out) < n
	})
	if len(out) < n {
		return nil, fmt.Errorf("model stream ended after %d of %d events", len(out), n)
	}
	return out, nil
}

// Funnel operation kinds.
const (
	opDetail uint8 = iota
	opDownload
	opRate
	opComment
)

var opEndpoints = [...]string{"", "download", "rate", "comments"}

// funnelOp is one request of the funnel workload.
type funnelOp struct {
	user, app int32
	kind      uint8
	rating    int8
	// retry marks a POST re-sent with its original Idempotency-Key, as a
	// mobile client does after a lost ack.
	retry bool
}

// funnelSession is the browse→install→rate funnel the users run.
func funnelSession(seed uint64, users, apps int) session.Config {
	return session.Config{
		Users: users, Apps: apps, Clusters: 30, ClusterP: 0.95, ZipfS: 0.95,
		VisitsPerUser: 4, InstallP: 0.5, RateP: 0.3, CommentP: 0.1, Seed: seed,
	}
}

// retryEvery re-sends one POST in this many.
const retryEvery = 10

// genFunnel flattens a session plan into requests in user order: each
// visit's detail GET, then its POSTs, every retryEvery-th POST followed
// by its retry.
func genFunnel(cfg session.Config) []funnelOp {
	p := session.NewPlan(cfg)
	ops := make([]funnelOp, 0, p.Visits+p.Installs+p.Ratings+p.Comments)
	posts := 0
	post := func(op funnelOp) {
		ops = append(ops, op)
		posts++
		if posts%retryEvery == 0 {
			op.retry = true
			ops = append(ops, op)
		}
	}
	for _, u := range p.Users {
		for _, v := range u.Visits {
			ops = append(ops, funnelOp{user: u.User, app: v.App, kind: opDetail})
			if v.Install {
				post(funnelOp{user: u.User, app: v.App, kind: opDownload})
			}
			if v.Rating > 0 {
				post(funnelOp{user: u.User, app: v.App, kind: opRate, rating: v.Rating})
			}
			if v.Comment {
				post(funnelOp{user: u.User, app: v.App, kind: opComment, rating: v.CommentRating})
			}
		}
	}
	return ops
}

// schedule draws n Poisson arrival offsets at rate per second.
func schedule(seed uint64, n int, rate float64) []time.Duration {
	r := rng.New(seed ^ 0x5ced)
	return arrivals(n, rate, r.Float64)
}

type digester struct{ buf []byte }

func (d *digester) u64(v uint64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, v) }

func (d *digester) sum() string {
	s := sha256.Sum256(d.buf)
	return hex.EncodeToString(s[:16])
}

func digestBrowse(evs []browseEvent, due []time.Duration) string {
	var d digester
	for _, e := range evs {
		flags := uint64(0)
		if e.gzip {
			flags |= 1
		}
		if e.comments {
			flags |= 2
		}
		if e.list {
			flags |= 4
		}
		d.u64(uint64(e.user)<<32 | uint64(uint32(e.app)))
		d.u64(flags)
	}
	for _, t := range due {
		d.u64(uint64(t))
	}
	return d.sum()
}

func digestFunnel(ops []funnelOp, due []time.Duration) string {
	var d digester
	for _, o := range ops {
		r := uint64(0)
		if o.retry {
			r = 1
		}
		d.u64(uint64(o.user)<<32 | uint64(uint32(o.app)))
		d.u64(uint64(o.kind) | uint64(uint8(o.rating))<<8 | r<<16)
	}
	for _, t := range due {
		d.u64(uint64(t))
	}
	return d.sum()
}

func digestCrawl(days int, shards int) string {
	var d digester
	d.u64(uint64(days))
	d.u64(uint64(shards))
	return d.sum()
}

// Canary digests: the inputs generated at seed 1 at a fixed small size.
// A change here means the repo's generators now produce a different
// workload; re-record them (go test -run TestCanary -v prints the
// current values) in a change that says so, and re-baseline.
const (
	canaryBrowse = "db042845d44bdc90f93154d046544b3d"
	canaryFunnel = "6c2cfafdd6938292b0212b1df506b5d4"
)

func canaryDigests() (browse, funnel string, err error) {
	evs, err := genBrowse(1, catalogApps, 5000)
	if err != nil {
		return "", "", err
	}
	browse = digestBrowse(evs, schedule(1, len(evs), 1000))
	ops := genFunnel(funnelSession(1, 500, catalogApps))
	funnel = digestFunnel(ops, schedule(1, len(ops), 1000))
	return browse, funnel, nil
}

// checkCanary fails when the generators no longer produce the recorded
// workload.
func checkCanary() error {
	b, f, err := canaryDigests()
	if err != nil {
		return err
	}
	if b != canaryBrowse || f != canaryFunnel {
		return fmt.Errorf("workload changed: canary digests browse=%s funnel=%s, recorded browse=%s funnel=%s",
			b, f, canaryBrowse, canaryFunnel)
	}
	return nil
}

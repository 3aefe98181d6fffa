// Package session plans the simulated store users that drive the write
// path: N users each follow a preference-driven browse→detail→install→
// rate→comment funnel against the /api/v1 surface, the behavioral loop the
// paper's ecosystem observes from the outside (and the usage-mining
// literature — "Mining Behavioral Patterns from Millions of Android
// Users" — records from the inside). App choice follows the
// APP-CLUSTERING model from internal/model: each user belongs to one
// interest cluster and draws apps from a within-cluster Zipf with
// probability ClusterP, from the global Zipf otherwise, fetch-at-most-once
// per (user, app).
//
// The package only plans. A Plan is generated single-threaded from a
// seed, so every random decision is made here, and IdemKey names each
// planned write's Idempotency-Key. Executors replay the plan:
// internal/loadgen's NewPlanSource (cmd/loadtest -model session) and
// stackbench's funnel workload. Since the store's WAL deltas are
// order-independent, a plan replayed at any concurrency produces the same
// next-day snapshot.
package session

import (
	"strconv"

	"planetapps/internal/dist"
	"planetapps/internal/model"
	"planetapps/internal/rng"
)

// Config sizes a session plan.
type Config struct {
	// Users is the simulated user population.
	Users int
	// Apps is the catalog size the users browse (app IDs 0..Apps-1).
	Apps int
	// Clusters is the interest-cluster count for the APP-CLUSTERING
	// affinity (<= 1 disables clustering: all draws are global).
	Clusters int
	// ClusterP is the probability a visit draws from the user's home
	// cluster instead of the global ranking (paper Eq. 5 regime).
	ClusterP float64
	// ZipfS is the popularity skew of both the global and within-cluster
	// rankings (<= 0 uses 0.9, the paper's fitted neighborhood).
	ZipfS float64
	// VisitsPerUser is the mean visits (detail-page views) per user; the
	// actual count is Poisson-drawn per user (0 uses 4).
	VisitsPerUser float64
	// InstallP is the probability a visited app is installed (the
	// browse→install conversion). RateP and CommentP are conditional on
	// install: an installed app is rated with RateP and commented on with
	// CommentP. Ratings skew high, as store ratings do.
	InstallP, RateP, CommentP float64
	// Seed drives every draw; equal seeds mean equal plans.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.ZipfS <= 0 {
		c.ZipfS = 0.9
	}
	if c.VisitsPerUser <= 0 {
		c.VisitsPerUser = 4
	}
	return c
}

// Visit is one planned funnel step: a detail-page view, optionally
// followed by an install (POST download), a rating (POST rate), and a
// comment (POST comments).
type Visit struct {
	App     int32
	Install bool
	// Rating is 1..5 when the user rates the installed app, 0 otherwise.
	Rating int8
	// Comment reports a comment; CommentRating is its attached rating
	// (0 = none, matching the generated comment streams).
	Comment       bool
	CommentRating int8
}

// UserPlan is one user's ordered funnel.
type UserPlan struct {
	User   int32
	Visits []Visit
}

// Plan is a fully materialized session schedule: every random decision
// already made, so execution is deterministic no matter how it is
// parallelized.
type Plan struct {
	Users []UserPlan
	// Planned totals, for sizing expectations and test assertions.
	Visits, Installs, Ratings, Comments int
}

// ratingWeights is the J-shaped rating histogram app stores exhibit:
// most ratings are 5s, with a small spike of 1s — the shape the paper's
// comment analysis reports.
var ratingWeights = []float64{0.10, 0.05, 0.10, 0.20, 0.55} // ratings 1..5

// NewPlan materializes a session schedule from cfg. Planning is
// single-threaded and consumes the seed in a fixed order (one RNG split
// per user), so equal configs yield equal plans.
func NewPlan(cfg Config) *Plan {
	cfg = cfg.withDefaults()
	p := &Plan{}
	if cfg.Users <= 0 || cfg.Apps <= 0 {
		return p
	}
	root := rng.New(cfg.Seed)
	global := dist.MustZipf(cfg.Apps, cfg.ZipfS)
	ratings := dist.MustCategorical(ratingWeights)

	var cm *model.ClusterMap
	var clusterZipf []*dist.Zipf
	if cfg.Clusters > 1 && cfg.ClusterP > 0 {
		cm = model.RoundRobin(cfg.Apps, cfg.Clusters)
		clusterZipf = make([]*dist.Zipf, len(cm.Members))
		for c, members := range cm.Members {
			clusterZipf[c] = dist.MustZipf(len(members), cfg.ZipfS)
		}
	}

	p.Users = make([]UserPlan, 0, cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		r := root.Split(uint64(u))
		home := 0
		if cm != nil {
			home = int(r.Uint64n(uint64(len(cm.Members))))
		}
		want := r.Poisson(cfg.VisitsPerUser)
		up := UserPlan{User: int32(u), Visits: make([]Visit, 0, want)}
		seen := make(map[int32]struct{}, want)
		// Fetch-at-most-once: a redrawn app is skipped, not revisited; the
		// attempt budget keeps a tiny catalog from spinning forever.
		for attempts := 0; len(up.Visits) < want && attempts < want*4+16; attempts++ {
			var app int32
			// Zipf ranks are 1-based; rank 1 is the cluster's (or catalog's)
			// most popular app.
			if cm != nil && r.Bool(cfg.ClusterP) {
				app = cm.Members[home][clusterZipf[home].Sample(r)-1]
			} else {
				app = int32(global.Sample(r) - 1)
			}
			if _, dup := seen[app]; dup {
				continue
			}
			seen[app] = struct{}{}
			v := Visit{App: app, Install: r.Bool(cfg.InstallP)}
			if v.Install {
				if r.Bool(cfg.RateP) {
					v.Rating = int8(1 + ratings.Sample(r))
				}
				if r.Bool(cfg.CommentP) {
					v.Comment = true
					v.CommentRating = v.Rating // 0 when unrated, as generated streams allow
				}
			}
			up.Visits = append(up.Visits, v)
			p.Visits++
			if v.Install {
				p.Installs++
			}
			if v.Rating > 0 {
				p.Ratings++
			}
			if v.Comment {
				p.Comments++
			}
		}
		p.Users = append(p.Users, up)
	}
	return p
}

// IdemKey renders the deterministic Idempotency-Key for one (user, app,
// endpoint) write — stable across retries, workers, and runs, which is
// what lets a replayed plan dedup instead of double-count.
func IdemKey(user, app int32, endpoint string) string {
	return "u" + strconv.FormatInt(int64(user), 10) +
		"-a" + strconv.FormatInt(int64(app), 10) + "-" + endpoint
}

package loadgen

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"planetapps/internal/session"
	"planetapps/internal/storeserver"
)

func replayPlan(seed uint64) *session.Plan {
	return session.NewPlan(session.Config{
		Users: 40, Apps: 20, Clusters: 4, ClusterP: 0.7,
		InstallP: 0.8, RateP: 0.6, CommentP: 0.4, Seed: seed,
	})
}

// replay runs plan once, closed loop with users virtual users, against
// the v1 surface at url.
func replay(t *testing.T, url string, plan *session.Plan, users int) *Report {
	t.Helper()
	g, err := New(Config{BaseURL: url, APIPrefix: "/api/v1", Mode: ClosedLoop, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), NewPlanSource(plan))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.OtherStatus != 0 || rep.RateLimited != 0 {
		t.Fatalf("read failures: %+v", rep)
	}
	for _, w := range rep.Writes {
		if w.Duplicate != 0 || w.Backpressure429 != 0 || w.Rejected != 0 || w.Errors != 0 {
			t.Fatalf("write failures: %+v", w)
		}
	}
	return rep
}

// acked totals one write endpoint's accepted and deduped acks.
func acked(rep *Report, endpoint string) int64 {
	for _, w := range rep.Writes {
		if w.Endpoint == endpoint {
			return w.Accepted + w.Deduped
		}
	}
	return 0
}

func fetch(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), resp.Header.Get("Etag")
}

// TestReplayDeterminism: the same plan replayed by 1 and by 8 closed-loop
// users against same-seed stores yields byte-identical next-day
// snapshots — WAL deltas are order-independent, comment timestamps are
// day-derived, and all randomness lives in the plan.
func TestReplayDeterminism(t *testing.T) {
	plan := replayPlan(11)

	run := func(users int) (*storeserver.Server, *httptest.Server, *Report) {
		s, ts := testStore(t, storeserver.Config{PageSize: 50})
		rep := replay(t, ts.URL, plan, users)
		if err := s.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
		return s, ts, rep
	}
	s1, ts1, r1 := run(1)
	s8, ts8, r8 := run(8)

	for _, r := range []*Report{r1, r8} {
		if r.Events != int64(plan.Visits) || r.WriteDeduped != 0 {
			t.Fatalf("replayed %d visits (%d deduped), planned %d", r.Events, r.WriteDeduped, plan.Visits)
		}
		if got := acked(r, WriteDownload); got != int64(plan.Installs) {
			t.Fatalf("planned %d installs, %d acked", plan.Installs, got)
		}
		if got := acked(r, WriteRate); got != int64(plan.Ratings) {
			t.Fatalf("planned %d ratings, %d acked", plan.Ratings, got)
		}
		if got := acked(r, WriteComment); got != int64(plan.Comments) {
			t.Fatalf("planned %d comments, %d acked", plan.Comments, got)
		}
	}
	if r1.WriteAccepted != r8.WriteAccepted {
		t.Fatalf("accepted writes differ by user count: %d vs %d", r1.WriteAccepted, r8.WriteAccepted)
	}

	w1, w8 := s1.WALStats(), s8.WALStats()
	if w1.Accepted != w8.Accepted || w1.Accepted != r1.WriteAccepted || w1.Merged != w1.Accepted || w8.Merged != w8.Accepted {
		t.Fatalf("wal stats diverge: %+v vs %+v (client accepted %d)", w1, w8, r1.WriteAccepted)
	}

	// Byte-level comparison of the next-day snapshot across every surface
	// the writes touch.
	cursor := ""
	for {
		b1, e1 := fetch(t, ts1.URL+"/api/v1/apps?cursor="+cursor)
		b8, e8 := fetch(t, ts8.URL+"/api/v1/apps?cursor="+cursor)
		if b1 != b8 || e1 != e8 {
			t.Fatalf("list page (cursor %q) differs by user count", cursor)
		}
		var page struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal([]byte(b1), &page); err != nil {
			t.Fatal(err)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	urls := []string{"/api/v1/stats"}
	for id := 0; id < 20; id++ {
		urls = append(urls,
			"/api/v1/apps/"+strconv.Itoa(id),
			"/api/v1/apps/"+strconv.Itoa(id)+"/comments")
	}
	for _, u := range urls {
		b1, e1 := fetch(t, ts1.URL+u)
		b8, e8 := fetch(t, ts8.URL+u)
		if b1 != b8 {
			t.Fatalf("%s: bodies differ by user count:\n 1: %s\n 8: %s", u, b1, b8)
		}
		if e1 != e8 {
			t.Fatalf("%s: ETags differ by user count: %q vs %q", u, e1, e8)
		}
	}
}

// TestReplayDedups pins the idempotency story end to end: replaying the
// same plan against the same store (same Idempotency-Keys) acknowledges
// every write without logging anything twice — even across a day-roll,
// which ages but keeps one generation of keys.
func TestReplayDedups(t *testing.T) {
	plan := replayPlan(13)
	s, ts := testStore(t, storeserver.Config{PageSize: 50})

	first := replay(t, ts.URL, plan, 4)
	if first.WriteAccepted == 0 || first.WriteDeduped != 0 {
		t.Fatalf("first run: %d accepted, %d deduped", first.WriteAccepted, first.WriteDeduped)
	}
	accepted := s.WALStats().Accepted

	check := func(when string) {
		t.Helper()
		r := replay(t, ts.URL, plan, 4)
		if r.WriteAccepted != 0 || r.WriteDeduped != first.WriteAccepted {
			t.Fatalf("%s replay: %d accepted, %d deduped (first run accepted %d)",
				when, r.WriteAccepted, r.WriteDeduped, first.WriteAccepted)
		}
		if got := s.WALStats().Accepted; got != accepted {
			t.Fatalf("%s replay logged new records: %d -> %d", when, accepted, got)
		}
	}
	// Within the same day every write dedups on its key; across one roll
	// the keys live in the aged generation and still dedup.
	check("same-day")
	if err := s.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	check("cross-roll")
}

// TestPlanSourceNeedsV1: a plan's writes cannot go to the read-only
// legacy surface, so the run stops with an error at the first visit that
// writes, before any POST leaves the generator.
func TestPlanSourceNeedsV1(t *testing.T) {
	s, _ := testStore(t, storeserver.Config{PageSize: 50})
	var posts atomic.Int64
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	g, err := New(Config{BaseURL: ts.URL, APIPrefix: "/api", Mode: ClosedLoop, Users: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(context.Background(), NewPlanSource(replayPlan(11)))
	if err == nil || !strings.Contains(err.Error(), "/api/v1") {
		t.Fatalf("plan replayed on the legacy surface: err %v", err)
	}
	if n := posts.Load(); n != 0 || rep.Writes != nil {
		t.Fatalf("%d POSTs reached the store, report writes %+v", n, rep.Writes)
	}
	if got := s.WALStats().Accepted; got != 0 {
		t.Fatalf("wal accepted %d writes", got)
	}
}

package storeserver

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"planetapps/internal/catalog"
	"planetapps/internal/faultinject"
	"planetapps/internal/gzipx"
	"planetapps/internal/marketsim"
)

// fetch returns status, body, and selected headers for one GET.
func fetch(t *testing.T, url string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestV1ServesIdenticalDocuments asserts the core no-double-encoding
// contract: /api/v1 serves the very same pre-encoded bytes and ETags as
// the legacy routes (identity-for-identity), plus the X-API-Version
// header — and when the client negotiates gzip, the snapshot-time
// compressed variant of those same bytes under the representation's own
// "-gz" ETag. The legacy surface stays identity-only on the wire.
func TestV1ServesIdenticalDocuments(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50})
	identity := map[string]string{"Accept-Encoding": "identity"}
	gz := map[string]string{"Accept-Encoding": "gzip"}
	paths := [][2]string{
		{"/api/stats", "/api/v1/stats"},
		{"/api/apps?page=0", "/api/v1/apps?page=0"},
		{"/api/apps?page=2", "/api/v1/apps?page=2"},
		{"/api/apps/0", "/api/v1/apps/0"},
		{"/api/apps/7", "/api/v1/apps/7"},
		{"/api/apps/7/comments", "/api/v1/apps/7/comments"},
	}
	for _, p := range paths {
		legacyCode, legacyBody, legacyHdr := fetch(t, ts.URL+p[0], gz)
		v1Code, v1Body, v1Hdr := fetch(t, ts.URL+p[1], identity)
		if legacyCode != 200 || v1Code != 200 {
			t.Fatalf("%s: legacy %d, v1 %d", p[0], legacyCode, v1Code)
		}
		// Legacy is byte-frozen: even a gzip-accepting client gets the
		// identity bytes with no negotiation headers.
		if got := legacyHdr.Get("Content-Encoding"); got != "" {
			t.Fatalf("%s: legacy response grew Content-Encoding %q", p[0], got)
		}
		if got := legacyHdr.Get("Vary"); got != "" {
			t.Fatalf("%s: legacy response grew Vary %q", p[0], got)
		}
		if string(legacyBody) != string(v1Body) {
			t.Fatalf("%s: v1 identity body differs from legacy", p[0])
		}
		le, ve := legacyHdr.Get("ETag"), v1Hdr.Get("ETag")
		if le != ve || le == "" {
			t.Fatalf("%s: ETag mismatch legacy %q v1 %q", p[0], le, ve)
		}
		if got := v1Hdr.Get("Vary"); got != "Accept-Encoding" {
			t.Fatalf("%s: v1 Vary = %q, want Accept-Encoding", p[1], got)
		}
		if got := v1Hdr.Get("X-API-Version"); got != "1" {
			t.Fatalf("%s: X-API-Version = %q, want 1", p[1], got)
		}
		if got := legacyHdr.Get("X-API-Version"); got != "" {
			t.Fatalf("%s: legacy response grew an X-API-Version header %q", p[0], got)
		}

		// Same document negotiated as gzip: pre-compressed bytes that
		// inflate to exactly the identity body, under the -gz ETag.
		gzCode, gzBody, gzHdr := fetch(t, ts.URL+p[1], gz)
		if gzCode != 200 {
			t.Fatalf("%s: gzip fetch status %d", p[1], gzCode)
		}
		switch gzHdr.Get("Content-Encoding") {
		case "gzip":
			want := strings.TrimSuffix(le, `"`) + `-gz"`
			if got := gzHdr.Get("ETag"); got != want {
				t.Fatalf("%s: gzip ETag = %q, want %q", p[1], got, want)
			}
			plain, err := gzipx.Decompress(gzBody)
			if err != nil {
				t.Fatalf("%s: served gzip does not inflate: %v", p[1], err)
			}
			if string(plain) != string(legacyBody) {
				t.Fatalf("%s: gzip variant inflates to different bytes", p[1])
			}
			if cl := gzHdr.Get("Content-Length"); cl != strconv.Itoa(len(gzBody)) {
				t.Fatalf("%s: gzip Content-Length %q vs %d wire bytes", p[1], cl, len(gzBody))
			}
		case "":
			// Incompressible document (gzip would not shrink it): identity
			// fallback with the identity ETag is the correct answer.
			if string(gzBody) != string(legacyBody) || gzHdr.Get("ETag") != le {
				t.Fatalf("%s: identity fallback served different bytes/ETag", p[1])
			}
		default:
			t.Fatalf("%s: unexpected Content-Encoding %q", p[1], gzHdr.Get("Content-Encoding"))
		}
	}
}

// decodeEnvelope parses a v1 error body, failing the test on any shape
// deviation.
func decodeEnvelope(t *testing.T, body []byte) ErrorJSON {
	t.Helper()
	var e ErrorJSON
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		t.Fatalf("error body %q is not the v1 envelope: %v", body, err)
	}
	if e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("envelope missing code/message: %q", body)
	}
	return e
}

// TestV1ErrorPaths is the table-driven sweep over every v1 error path.
func TestV1ErrorPaths(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50})
	cases := []struct {
		name     string
		path     string
		wantCode int
		wantErr  string
	}{
		{"bad-page-not-a-number", "/api/v1/apps?page=zebra", 400, "bad_page"},
		{"bad-page-negative", "/api/v1/apps?page=-3", 400, "bad_page"},
		{"page-out-of-range", "/api/v1/apps?page=99999", 404, "page_out_of_range"},
		{"bad-cursor-garbage", "/api/v1/apps?cursor=%24%24not-base64%24%24", 400, "bad_cursor"},
		{"bad-cursor-wrong-payload", "/api/v1/apps?cursor=bm9wZQ", 400, "bad_cursor"},
		{"page-and-cursor-conflict", "/api/v1/apps?page=0&cursor=", 400, "bad_request"},
		{"bad-app-id", "/api/v1/apps/zebra", 400, "bad_app_id"},
		{"negative-app-id", "/api/v1/apps/-1", 400, "bad_app_id"},
		{"unknown-app", "/api/v1/apps/99999999", 404, "app_not_found"},
		{"unknown-app-comments", "/api/v1/apps/99999999/comments", 404, "app_not_found"},
		{"unknown-app-apk", "/api/v1/apps/99999999/apk", 404, "app_not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body, hdr := fetch(t, ts.URL+tc.path, nil)
			if code != tc.wantCode {
				t.Fatalf("status = %d, want %d (body %q)", code, tc.wantCode, body)
			}
			if got := hdr.Get("X-API-Version"); got != "1" {
				t.Fatalf("X-API-Version = %q, want 1", got)
			}
			if got := hdr.Get("Content-Type"); got != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", got)
			}
			if e := decodeEnvelope(t, body); e.Error.Code != tc.wantErr {
				t.Fatalf("error code = %q, want %q", e.Error.Code, tc.wantErr)
			}
		})
	}
}

// TestV1RateLimit429 asserts a throttled v1 request carries the envelope
// with a real retry_after_ms plus a Retry-After header, while the legacy
// route keeps its historical bare-string 429 with "Retry-After: 1".
func TestV1RateLimit429(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 50, RatePerSec: 1, Burst: 2})
	hammer := func(path string) (int, []byte, http.Header) {
		for i := 0; i < 50; i++ {
			code, body, hdr := fetch(t, ts.URL+path, map[string]string{"X-Forwarded-For": "throttled-" + path})
			if code == http.StatusTooManyRequests {
				return code, body, hdr
			}
		}
		t.Fatalf("%s: never rate-limited", path)
		return 0, nil, nil
	}

	_, body, hdr := hammer("/api/v1/stats")
	e := decodeEnvelope(t, body)
	if e.Error.Code != "rate_limited" {
		t.Fatalf("code = %q, want rate_limited", e.Error.Code)
	}
	if e.Error.RetryAfterMS <= 0 || e.Error.RetryAfterMS > 2000 {
		t.Fatalf("retry_after_ms = %d, want a real sub-2s wait at 1 rps", e.Error.RetryAfterMS)
	}
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Fatal("v1 429 without Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}

	_, body, hdr = hammer("/api/stats")
	if string(body) != "rate limit exceeded\n" {
		t.Fatalf("legacy 429 body = %q, want the historical bare string", body)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Fatalf("legacy Retry-After = %q, want the historical \"1\"", ra)
	}
}

// TestV1CursorWalksWholeCatalog pages the full catalog by cursor and
// checks the union is exactly the app set, in ID order, with no repeats.
func TestV1CursorWalksWholeCatalog(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 64})
	var stats StatsJSON
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	nextID := int32(0)
	cursor := ""
	steps := 0
	for {
		var page CursorPageJSON
		code := getJSON(t, ts.URL+"/api/v1/apps?cursor="+cursor, &page)
		if code != 200 {
			t.Fatalf("cursor step %d: status %d", steps, code)
		}
		if page.Total != stats.Apps {
			t.Fatalf("total = %d, want %d", page.Total, stats.Apps)
		}
		for _, a := range page.Apps {
			if a.ID != nextID {
				t.Fatalf("cursor walk saw app %d, want %d (skip or repeat)", a.ID, nextID)
			}
			nextID++
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if steps++; steps > stats.Apps {
			t.Fatal("cursor walk does not terminate")
		}
	}
	if int(nextID) != stats.Apps {
		t.Fatalf("walked %d apps, want %d", nextID, stats.Apps)
	}
}

// TestV1CursorStableAcrossDayRoll interleaves AdvanceDay into a cursor
// walk: because cursors anchor on app IDs (append-only), the walk must
// still see every app exactly once — including apps born mid-walk, which
// land at the tail.
func TestV1CursorStableAcrossDayRoll(t *testing.T) {
	s, ts := testServer(t, Config{PageSize: 32})
	seen := map[int32]bool{}
	cursor := ""
	step := 0
	for {
		var page CursorPageJSON
		if code := getJSON(t, ts.URL+"/api/v1/apps?cursor="+cursor, &page); code != 200 {
			t.Fatalf("step %d: status %d", step, code)
		}
		for _, a := range page.Apps {
			if seen[a.ID] {
				t.Fatalf("app %d served twice across the day-roll", a.ID)
			}
			seen[a.ID] = true
		}
		// Roll the store mid-pagination, twice, at different walk depths.
		if step == 2 || step == 5 {
			if err := s.AdvanceDay(); err != nil {
				t.Fatal(err)
			}
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if step++; step > 10000 {
			t.Fatal("walk does not terminate")
		}
	}
	// The walk must have covered the final catalog completely: the cursor
	// anchors on IDs, the catalog is append-only, and the tail pages are
	// served from the newest snapshot.
	var stats StatsJSON
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if len(seen) != stats.Apps {
		t.Fatalf("saw %d distinct apps, final catalog has %d", len(seen), stats.Apps)
	}
	for id := int32(0); int(id) < stats.Apps; id++ {
		if !seen[id] {
			t.Fatalf("app %d skipped across the day-roll", id)
		}
	}
}

// TestV1CursorConditionalGet asserts cursor slices revalidate via ETags:
// an unchanged slice earns a 304 (with no body) on If-None-Match.
func TestV1CursorConditionalGet(t *testing.T) {
	_, ts := testServer(t, Config{PageSize: 32})
	code, _, hdr := fetch(t, ts.URL+"/api/v1/apps?cursor=", nil)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatal("cursor response without ETag")
	}
	code, body, _ := fetch(t, ts.URL+"/api/v1/apps?cursor=", map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", code)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
}

// TestV1ChaosEnvelope asserts injected faults speak the dialect of the
// surface they hit: v1 requests get the JSON envelope (with retry_after_ms
// on 503 bursts), legacy requests get plain text.
func TestV1ChaosEnvelope(t *testing.T) {
	mcfg := marketsim.DefaultConfig(catalog.Profiles["slideme"].Scale(0.2))
	mcfg.Days = 10
	m, err := marketsim.New(mcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, Config{PageSize: 50})
	// Every request faults: a one-rule always-on 503 burst with a
	// Retry-After hint.
	s.SetChaos(faultinject.New(faultinject.Scenario{
		Name: "all-503",
		Rules: []faultinject.Rule{{
			Route: "/api", Kind: faultinject.KindError, Prob: 1,
			Status: http.StatusServiceUnavailable, RetryAfter: 80 * time.Millisecond,
		}},
	}, 7, nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, hdr := fetch(t, ts.URL+"/api/v1/stats", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("v1 status = %d, want 503", code)
	}
	e := decodeEnvelope(t, body)
	if e.Error.Code != "unavailable" {
		t.Fatalf("v1 chaos code = %q, want unavailable", e.Error.Code)
	}
	if e.Error.RetryAfterMS != 80 {
		t.Fatalf("retry_after_ms = %d, want 80", e.Error.RetryAfterMS)
	}
	if hdr.Get("X-API-Version") != "1" {
		t.Fatal("v1 chaos response missing X-API-Version")
	}

	code, body, _ = fetch(t, ts.URL+"/api/stats", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("legacy status = %d, want 503", code)
	}
	if strings.HasPrefix(string(body), "{") {
		t.Fatalf("legacy chaos response is JSON %q, want plain text", body)
	}

	// /metrics stays fault-free.
	for i := 0; i < 20; i++ {
		code, _, _ := fetch(t, ts.URL+"/metrics", nil)
		if code != 200 {
			t.Fatalf("/metrics faulted with %d", code)
		}
	}
}

// TestCursorRoundTrip covers the opaque codec itself.
func TestCursorRoundTrip(t *testing.T) {
	for _, v := range []int{0, 1, 63, 64, 12345, 1 << 30} {
		got, ok := decodeCursor(encodeCursor(v))
		if !ok || got != v {
			t.Fatalf("round-trip(%d) = %d, %v", v, got, ok)
		}
	}
	for _, bad := range []string{"***", "bm9wZQ", "YS0x" /* "a-1" */, fmt.Sprintf("%c", 0)} {
		if _, ok := decodeCursor(bad); ok {
			t.Fatalf("decodeCursor(%q) accepted", bad)
		}
	}
}

// FuzzCursor checks the v1 listing cursor codec: decodeCursor never
// panics, any cursor it accepts names an anchor in 0..MaxInt32, and every
// anchor in that range survives encodeCursor then decodeCursor. Seed
// cursors live in testdata/fuzz/FuzzCursor.
func FuzzCursor(f *testing.F) {
	f.Add("", uint32(0))
	f.Add(encodeCursor(12345), uint32(12345))
	f.Fuzz(func(t *testing.T, cur string, n uint32) {
		if v, ok := decodeCursor(cur); ok && (v < 0 || v > math.MaxInt32) {
			t.Fatalf("decodeCursor(%q) accepted out-of-range anchor %d", cur, v)
		}
		id := int(n & math.MaxInt32)
		if got, ok := decodeCursor(encodeCursor(id)); !ok || got != id {
			t.Fatalf("round-trip(%d) = %d, %v", id, got, ok)
		}
	})
}

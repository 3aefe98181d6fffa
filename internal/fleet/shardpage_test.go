package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"planetapps/internal/storeserver"
)

// --- oracles ---------------------------------------------------------------

// oracleRow and oraclePage are the listing decode as the gateway did it
// with encoding/json before the scanner: the scanner must never accept a
// page this decode rejects or reads differently.
type oracleRow struct {
	id  int32
	raw json.RawMessage
}

func (a *oracleRow) UnmarshalJSON(b []byte) error {
	var key struct {
		ID int32 `json:"id"`
	}
	if err := json.Unmarshal(b, &key); err != nil {
		return err
	}
	a.id = key.ID
	a.raw = append(json.RawMessage(nil), b...)
	return nil
}

type oraclePage struct {
	Apps       []oracleRow `json:"apps"`
	NextCursor string      `json:"next_cursor"`
	Total      int         `json:"total"`
}

// oracleCursorBody and oraclePageZeroBody render merged pages the way the
// gateway did with json.Encoder over pre-encoded rows.
func oracleCursorBody(t testing.TB, rows [][]byte, next string, total int) []byte {
	t.Helper()
	out := struct {
		Apps       []json.RawMessage `json:"apps"`
		NextCursor string            `json:"next_cursor,omitempty"`
		Total      int               `json:"total"`
	}{Apps: rawMessages(rows), NextCursor: next, Total: total}
	return oracleEncode(t, out)
}

func oraclePageZeroBody(t testing.TB, rows [][]byte, pages, total int) []byte {
	t.Helper()
	out := struct {
		Apps  []json.RawMessage `json:"apps"`
		Page  int               `json:"page"`
		Pages int               `json:"pages"`
		Total int               `json:"total"`
	}{Apps: rawMessages(rows), Pages: pages, Total: total}
	return oracleEncode(t, out)
}

func rawMessages(rows [][]byte) []json.RawMessage {
	out := make([]json.RawMessage, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// oracleEncode renders v with json.Encoder, the encoder shards use for
// their pages.
func oracleEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleRowBytes is how the encoder-based gateway served one row: the
// shard's bytes compacted and HTML-escaped.
func oracleRowBytes(t testing.TB, raw []byte) []byte {
	t.Helper()
	b, err := json.Marshal(json.RawMessage(raw))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// trickyApps are rows whose strings need every escape the encoder emits.
var trickyApps = []storeserver.AppJSON{
	{ID: 3, Name: `quote " and backslash \ and slash /`, Category: "tools", Developer: "d<1>"},
	{ID: 9, Name: "html <b>&amp;</b> \u2028 \u2029", Category: "games", Developer: "ctl \x01\x1f\t\n"},
	{ID: 11, Name: "unicode é 漢字 🎮 \ufffd", Category: "x", Developer: "y", Paid: true, Price: 0.99, SizeMB: 1e-7},
}

// --- scanner ---------------------------------------------------------------

func TestParseShardPageMatchesDecoder(t *testing.T) {
	ip := newFleet(t, 4, 7)
	checked := 0
	for i := range ip.Shards() {
		node := ip.Nodes[i]
		for _, path := range []string{
			"/api/v1/apps?cursor=" + storeserver.EncodeCursor(0) + "&limit=7",
			"/api/v1/apps?cursor=" + storeserver.EncodeCursor(ip.NumApps()/2) + "&limit=50",
			"/api/v1/apps?cursor=" + storeserver.EncodeCursor(ip.NumApps()-3) + "&limit=7",
			"/api/v1/apps?cursor=" + storeserver.EncodeCursor(ip.NumApps()+10) + "&limit=7",
		} {
			_, body := get(t, node, path, nil)
			checkVerbatim(t, body)
			checked++
		}
	}
	checkVerbatim(t, oracleEncode(t, storeserver.CursorPageJSON{Apps: trickyApps, NextCursor: storeserver.EncodeCursor(12), Total: 40}))
	if checked == 0 {
		t.Fatal("no pages checked")
	}
}

// checkAgainstOracle asserts the scanner accepts body and reads it as
// encoding/json does, each row in the form the encoder-based gateway
// served it.
func checkAgainstOracle(t testing.TB, body []byte) listing {
	t.Helper()
	got, err := parseShardPage(body, nil)
	if err != nil {
		t.Fatalf("scanner rejected a page: %v\n%s", err, body)
	}
	var want oraclePage
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("oracle rejected a page the scanner accepts: %v", err)
	}
	if len(got.rows) != len(want.Apps) || got.total != want.Total || string(got.cursor) != want.NextCursor {
		t.Fatalf("scanner read %d rows, total %d, cursor %q; decoder %d, %d, %q",
			len(got.rows), got.total, got.cursor, len(want.Apps), want.Total, want.NextCursor)
	}
	for i, r := range got.rows {
		if w := oracleRowBytes(t, want.Apps[i].raw); r.id != want.Apps[i].id || !bytes.Equal(r.raw, w) {
			t.Fatalf("row %d: scanner (%d, %s), encoder-based gateway (%d, %s)", i, r.id, r.raw, want.Apps[i].id, w)
		}
	}
	return got
}

// checkVerbatim additionally asserts a shard-encoded page's rows are the
// shard's bytes exactly, as encoding/json's RawMessage sees them.
func checkVerbatim(t testing.TB, body []byte) {
	t.Helper()
	got := checkAgainstOracle(t, body)
	var want oraclePage
	json.Unmarshal(body, &want) //nolint:errcheck // checked above
	for i, r := range got.rows {
		if !bytes.Equal(r.raw, want.Apps[i].raw) {
			t.Fatalf("row %d not spliced verbatim:\n got  %s\n want %s", i, r.raw, want.Apps[i].raw)
		}
	}
}

func TestParseShardPageRefusals(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		syntax     bool
	}{
		{"empty", ``, true},
		{"truncated", `{"apps":[{"id":1,"name":"a"}],"tot`, true},
		{"truncated string", `{"apps":[{"id":1,"name":"a`, true},
		{"trailing data", `{"apps":[],"total":0} {}`, true},
		{"bad escape", `{"apps":[{"id":1,"name":"\x"}],"total":1}`, true},
		{"short unicode escape", `{"apps":[{"id":1,"name":"\u12"}],"total":1}`, true},
		{"control char", "{\"apps\":[{\"id\":1,\"name\":\"a\x01\"}],\"total\":1}", true},
		{"leading zero", `{"apps":[{"id":01}],"total":1}`, true},
		{"bare minus", `{"apps":[{"id":-}],"total":1}`, true},
		{"bad fraction", `{"apps":[],"total":1.}`, true},
		{"bad exponent", `{"apps":[],"total":1e+}`, true},
		{"bad literal", `{"apps":[{"id":1,"paid":tru}],"total":1}`, true},
		{"trailing comma", `{"apps":[{"id":1},],"total":1}`, true},
		{"missing colon", `{"apps" [],"total":0}`, true},
		{"too deep", `{"apps":[{"id":1,"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}],"total":1}`, true},
		{"not an object", `[1,2]`, false},
		{"apps not an array", `{"apps":{},"total":0}`, false},
		{"row not an object", `{"apps":[7],"total":1}`, false},
		{"row without id", `{"apps":[{"name":"a"}],"total":1}`, false},
		{"fractional id", `{"apps":[{"id":1.5}],"total":1}`, false},
		{"id overflow", `{"apps":[{"id":2147483648}],"total":1}`, false},
		{"string id", `{"apps":[{"id":"1"}],"total":1}`, false},
		{"repeated id", `{"apps":[{"id":1,"id":2}],"total":1}`, false},
		{"id in other case", `{"apps":[{"id":1,"ID":2}],"total":1}`, false},
		{"total in other case", `{"apps":[],"total":0,"TOTAL":5}`, false},
		{"escaped key", `{"apps":[{"\u0069d":1}],"total":1}`, false},
		{"folded key", `{"apps":[],"next_curſor":"x","total":0}`, false},
		{"repeated apps", `{"apps":[],"apps":[],"total":0}`, false},
		{"missing total", `{"apps":[]}`, false},
		{"total overflow", `{"apps":[],"total":9223372036854775808}`, false},
		{"escaped cursor", `{"apps":[],"next_cursor":"\u0061","total":0}`, false},
		{"numeric cursor", `{"apps":[],"next_cursor":5,"total":0}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseShardPage([]byte(tc.body), nil)
			var pe *pageError
			if !errors.As(err, &pe) {
				t.Fatalf("accepted %q (err %v)", tc.body, err)
			}
			if pe.syntax != tc.syntax {
				t.Fatalf("syntax = %v, want %v (%v)", pe.syntax, tc.syntax, err)
			}
			if pe.syntax == json.Valid([]byte(tc.body)) {
				t.Fatalf("syntax verdict %v disagrees with json.Valid", pe.syntax)
			}
		})
	}
	// The edges the scanner accepts.
	for _, body := range []string{
		`{"apps":[{"id":-2147483648},{"id":2147483647}],"total":-9223372036854775808}`,
		`{"apps":[{"id":-0}],"next_cursor":null,"total":0}`,
		`{"apps":[],"next_cursor":"","total":0}`,
		`{"apps":[{"id":1,"x":` + strings.Repeat("[", maxDepth-3) + strings.Repeat("]", maxDepth-3) + `}],"total":1}`,
		` {"extra":{"a":[1,2.5e-3,true,false,null,"s\"\\\/\b\f\n\r\t\u00e9"]},"total":1,"apps":[ {"id" : 4 , "name":"<&>"} ]} ` + "\n",
	} {
		checkAgainstOracle(t, []byte(body))
	}
}

// TestParseShardPageCanonicalisesRows pins the slow path: a row that is
// valid JSON but not in the shard encoder's form is served the way the
// encoder-based gateway served it — compacted and HTML-escaped.
func TestParseShardPageCanonicalisesRows(t *testing.T) {
	body := []byte("{\"apps\":[ { \"id\" : 1 ,\n\"name\":\"a <b> & \u2028 \\\" x\", \"t\": [1, {\"k\" :2}] } ,{\"id\":2}],\"total\":2}")
	got := checkAgainstOracle(t, body)
	if want := `{"id":1,"name":"a \u003cb\u003e \u0026 \u2028 \" x","t":[1,{"k":2}]}`; string(got.rows[0].raw) != want {
		t.Fatalf("row 0 = %s, want %s", got.rows[0].raw, want)
	}
}

// --- writers ---------------------------------------------------------------

func TestMergedWriterMatchesEncoder(t *testing.T) {
	var tricky [][]byte
	for _, a := range trickyApps {
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		tricky = append(tricky, b)
	}
	for _, want := range []string{`\"`, `\u003c`, `\u003e`, `\u0026`, `\u2028`, `\u0001`, `\\`} {
		if !bytes.Contains(bytes.Join(tricky, nil), []byte(want)) {
			t.Fatalf("tricky rows lack %s", want)
		}
	}
	cursor := packCursor([]int32{12, 0, 7, 2147483647})
	for _, tc := range []struct {
		name  string
		rows  [][]byte
		next  string
		total int
	}{
		{"empty fleet", nil, "", 0},
		{"final page", tricky[:1], "", 15000},
		{"mid walk", tricky, cursor, 15000},
	} {
		got := appendCursorPage(nil, tc.rows, tc.next, tc.total)
		if want := oracleCursorBody(t, tc.rows, tc.next, tc.total); !bytes.Equal(got, want) {
			t.Fatalf("%s cursor page:\n got  %s\n want %s", tc.name, got, want)
		}
		got = appendPageZero(nil, tc.rows, 150, tc.total)
		if want := oraclePageZeroBody(t, tc.rows, 150, tc.total); !bytes.Equal(got, want) {
			t.Fatalf("%s page 0:\n got  %s\n want %s", tc.name, got, want)
		}
	}
	if got := string(appendCursorPage(nil, nil, "", 0)); got != "{\"apps\":[],\"total\":0}\n" {
		t.Fatalf("empty page = %q", got)
	}
}

// TestGatewayBodiesMatchSingleNode pins whole bodies, not just rows:
// page 0 on both dialects, and the walk's final page, are the single
// node's bytes; every page is what the encoder-based gateway rendered.
func TestGatewayBodiesMatchSingleNode(t *testing.T) {
	ip := newFleet(t, 4, 7)
	srv := singleNode(t, 7)
	for _, path := range []string{"/api/apps", "/api/v1/apps", "/api/apps?page=0"} {
		_, want := get(t, srv.Handler(), path, nil)
		_, got := get(t, ip.Handler(), path, nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n gateway %s\n single  %s", path, got, want)
		}
	}

	cursor, singleCursor := "", ""
	for step := 0; ; step++ {
		_, got := get(t, ip.Handler(), "/api/v1/apps?cursor="+cursor, nil)
		_, single := get(t, srv.Handler(), "/api/v1/apps?cursor="+singleCursor, nil)
		var page oraclePage
		if err := json.Unmarshal(got, &page); err != nil {
			t.Fatal(err)
		}
		var singlePage cursorPage
		if err := json.Unmarshal(single, &singlePage); err != nil {
			t.Fatal(err)
		}
		rows := make([][]byte, len(page.Apps))
		for i, r := range page.Apps {
			rows[i] = r.raw
		}
		if want := oracleCursorBody(t, rows, page.NextCursor, page.Total); !bytes.Equal(got, want) {
			t.Fatalf("step %d: body differs from the encoder rendering:\n got  %s\n want %s", step, got, want)
		}
		if page.NextCursor == "" {
			if !bytes.Equal(got, single) {
				t.Fatalf("final page differs from the single node's:\n gateway %s\n single  %s", got, single)
			}
			return
		}
		cursor, singleCursor = page.NextCursor, singlePage.NextCursor
		if step > 10000 {
			t.Fatal("walk does not terminate")
		}
	}
}

// --- bad shard bodies ------------------------------------------------------

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// failingReader yields its bytes, then err.
type failingReader struct {
	r   io.Reader
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		return n, f.err
	}
	return n, err
}

func TestMalformedShardPageIs502(t *testing.T) {
	ip := newFleet(t, 2, 7)
	node := ip.Nodes[1]
	mutations := map[string]func(resp *http.Response, body []byte){
		"truncated": func(resp *http.Response, body []byte) {
			resp.Body = io.NopCloser(bytes.NewReader(body[:len(body)/2]))
			resp.ContentLength = int64(len(body) / 2)
		},
		"short read": func(resp *http.Response, body []byte) {
			resp.Body = io.NopCloser(&failingReader{bytes.NewReader(body[:len(body)/2]), io.ErrUnexpectedEOF})
		},
		"corrupted byte": func(resp *http.Response, body []byte) {
			b := append([]byte(nil), body...)
			b[len(b)/3] = 0x01
			resp.Body = io.NopCloser(bytes.NewReader(b))
		},
		"unbalanced": func(resp *http.Response, body []byte) {
			b := bytes.Replace(body, []byte("}"), []byte("]"), 1)
			resp.Body = io.NopCloser(bytes.NewReader(b))
		},
		"not a page": func(resp *http.Response, _ []byte) {
			resp.Body = io.NopCloser(strings.NewReader(`{"apps":"none","total":0}`))
		},
		"bad cursor": func(resp *http.Response, _ []byte) {
			resp.Body = io.NopCloser(strings.NewReader(`{"apps":[],"next_cursor":"@@","total":0}`))
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			shards := append([]ShardClient(nil), ip.Shards()...)
			shards[1].HTTP = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				resp, err := HandlerTransport{Handler: node}.RoundTrip(r)
				if err != nil || r.URL.Path != "/api/v1/apps" {
					return resp, err
				}
				body, _ := io.ReadAll(resp.Body)
				mutate(resp, body)
				return resp, nil
			})}
			g := NewGateway(Config{Shards: shards, PageSize: 7})
			for _, path := range []string{"/api/v1/apps?cursor=", "/api/v1/apps", "/api/apps"} {
				resp, body := get(t, g, path, nil)
				if resp.StatusCode != http.StatusBadGateway {
					t.Fatalf("%s: status %d, want 502: %s", path, resp.StatusCode, body)
				}
				if strings.HasPrefix(path, "/api/v1/") {
					var e storeserver.ErrorJSON
					if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != "shard_bad_response" {
						t.Fatalf("%s: body %s, want shard_bad_response", path, body)
					}
				}
			}
			if g.Stats().ShardErrors == 0 {
				t.Fatal("shard error not counted")
			}
		})
	}
}

// --- fuzzing ---------------------------------------------------------------

// FuzzShardPage checks the scanner against encoding/json: its syntax
// verdict is json.Valid's; whatever it accepts, the decoder accepts and
// reads the same way; and every page a shard's encoder emits — here built
// from the fuzz input — is accepted with its rows spliced verbatim. Seed
// pages from real shards live in testdata/fuzz/FuzzShardPage.
func FuzzShardPage(f *testing.F) {
	for _, s := range []string{
		`{"apps":[],"total":0}`,
		`{"apps":[{"id":1,"name":"a"}],"next_cursor":"YTI","total":9}`,
		`{"apps":[{"id":1}],"total":1} x`,
		`{"apps":[{"id":1e3}],"total":1}`,
		`[{"apps":[]}]`,
		`{"apps":[{"id":1,"n":"\ud800"}],"total":1}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := parseShardPage(data, nil)
		valid := json.Valid(data)
		if err != nil {
			var pe *pageError
			if !errors.As(err, &pe) {
				t.Fatalf("error of type %T: %v", err, err)
			}
			if pe.syntax == valid {
				t.Fatalf("syntax verdict %v, json.Valid %v: %v", pe.syntax, valid, err)
			}
		} else {
			if !valid {
				t.Fatal("accepted a body json.Valid rejects")
			}
			var want oraclePage
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("accepted a page encoding/json rejects: %v", err)
			}
			if len(got.rows) != len(want.Apps) || got.total != want.Total || string(got.cursor) != want.NextCursor {
				t.Fatalf("scanner read %d rows, total %d, cursor %q; decoder %d, %d, %q",
					len(got.rows), got.total, got.cursor, len(want.Apps), want.Total, want.NextCursor)
			}
			for i, r := range got.rows {
				if r.id != want.Apps[i].id {
					t.Fatalf("row %d: id %d, decoder %d", i, r.id, want.Apps[i].id)
				}
				if w := oracleRowBytes(t, want.Apps[i].raw); !bytes.Equal(r.raw, w) {
					t.Fatalf("row %d: %s, encoder-based gateway served %s", i, r.raw, w)
				}
			}
		}

		// A shard-encoded page built from the input.
		s := string(data)
		apps := []storeserver.AppJSON{
			{ID: int32(len(s)), Name: s, Category: s[:len(s)/2], Price: float64(len(s)) / 7},
			{ID: -int32(len(s) % 5), Developer: s[len(s)/2:], Downloads: int64(len(s)) << 40},
		}
		page := storeserver.CursorPageJSON{Apps: apps[:len(s)%3], Total: len(s)}
		if len(s)%2 == 1 {
			page.NextCursor = storeserver.EncodeCursor(len(s))
		}
		body := oracleEncode(t, page)
		l, err := parseShardPage(body, nil)
		if err != nil {
			t.Fatalf("rejected a shard-encoded page: %v\n%s", err, body)
		}
		if len(l.rows) != len(page.Apps) || l.total != page.Total || string(l.cursor) != page.NextCursor {
			t.Fatalf("misread a shard-encoded page: %s", body)
		}
		for i, r := range l.rows {
			w, _ := json.Marshal(page.Apps[i])
			if r.id != page.Apps[i].ID || !bytes.Equal(r.raw, w) {
				t.Fatalf("row %d: (%d, %s), encoded (%d, %s)", i, r.id, r.raw, page.Apps[i].ID, w)
			}
		}
	})
}

// FuzzGatewayCursor checks the g1: cursor codec: unpack never panics,
// packed anchors round-trip, and a cursor only resumes against the shard
// count it was minted for.
func FuzzGatewayCursor(f *testing.F) {
	f.Add("", 4, []byte{})
	f.Add(packCursor([]int32{0, 17, 3, 2147483647}), 4, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(packCursor([]int32{5}), 1, []byte{0xff, 0xff, 0xff, 0x7f})
	f.Add("ZzE6MjoxOjI", 2, []byte{9}) // "g1:2:1:2"
	f.Add("ZzE6MjoxOi0y", 2, []byte{}) // negative anchor
	f.Fuzz(func(t *testing.T, cur string, shards int, seed []byte) {
		shards = 1 + int(uint(shards)%16)
		if a, ok := unpackCursor(cur, shards); ok {
			if len(a) != shards {
				t.Fatalf("%q: %d anchors for %d shards", cur, len(a), shards)
			}
			for _, v := range a {
				if v < 0 {
					t.Fatalf("%q: negative anchor %d", cur, v)
				}
			}
			if b, ok := unpackCursor(packCursor(a), shards); !ok || !equalAnchors(a, b) {
				t.Fatalf("%q: repacked anchors %v do not round-trip (%v, %v)", cur, a, b, ok)
			}
			checkShardCount(t, cur, shards)
		}

		anchors := make([]int32, 0, len(seed)/4+1)
		for i := 0; i+4 <= len(seed); i += 4 {
			v := int32(seed[i]) | int32(seed[i+1])<<8 | int32(seed[i+2])<<16 | int32(seed[i+3]&0x7f)<<24
			anchors = append(anchors, v)
		}
		if len(anchors) == 0 {
			anchors = append(anchors, int32(len(seed)))
		}
		packed := packCursor(anchors)
		if got, ok := unpackCursor(packed, len(anchors)); !ok || !equalAnchors(got, anchors) {
			t.Fatalf("anchors %v: round trip gave %v, %v", anchors, got, ok)
		}
		checkShardCount(t, packed, len(anchors))
	})
}

func checkShardCount(t *testing.T, cur string, shards int) {
	t.Helper()
	for _, k := range []int{shards - 1, shards + 1, 2 * shards} {
		if k < 1 || k == shards {
			continue
		}
		if _, ok := unpackCursor(cur, k); ok {
			t.Fatalf("%q minted for %d shards accepted at %d", cur, shards, k)
		}
	}
}

func equalAnchors(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- benchmark -------------------------------------------------------------

// pageSink is a minimal reusable ResponseWriter for the benchmark, so the
// measured allocations are the gateway's and the shards', not a
// recorder's.
type pageSink struct {
	h    http.Header
	code int
	body []byte
}

func (s *pageSink) Header() http.Header         { return s.h }
func (s *pageSink) WriteHeader(code int)        { s.code = code }
func (s *pageSink) Write(p []byte) (int, error) { s.body = append(s.body, p...); return len(p), nil }

// BenchmarkGatewayCursorWalk walks the whole 1mobile listing (15000 apps,
// 100-row pages) through a 4-shard in-process gateway: per page, four
// shard fetches, four validating scans, a merge and a render. One op is a
// full walk; µs/page, allocs/page and B/page are per merged page.
func BenchmarkGatewayCursorWalk(b *testing.B) {
	ip, err := NewInproc(InprocOptions{Shards: 4, Store: "1mobile", Scale: 1, Seed: 1, Days: 2})
	if err != nil {
		b.Fatal(err)
	}
	h := ip.Handler()
	sink := &pageSink{h: http.Header{}}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, "http://gateway/api/v1/apps", nil)
	if err != nil {
		b.Fatal(err)
	}
	marker := []byte(`"next_cursor":"`)
	walk := func() int {
		pages := 0
		cursor := ""
		for {
			req.URL.RawQuery = "cursor=" + cursor
			clear(sink.h)
			sink.code, sink.body = 0, sink.body[:0]
			h.ServeHTTP(sink, req)
			if sink.code != 0 && sink.code != http.StatusOK {
				b.Fatalf("status %d: %s", sink.code, sink.body)
			}
			pages++
			i := bytes.Index(sink.body, marker)
			if i < 0 {
				return pages
			}
			rest := sink.body[i+len(marker):]
			cursor = string(rest[:bytes.IndexByte(rest, '"')])
		}
	}
	walk() // warm the shards' document caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	var pages int
	for i := 0; i < b.N; i++ {
		pages += walk()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(pages), "µs/page")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(pages), "allocs/page")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(pages), "B/page")
}

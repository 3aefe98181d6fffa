package fleet

import (
	"io"
	"strconv"
	"sync"
)

// Shard listing pages are the gateway's hot input: every merged page
// scatters one /api/v1/apps request per shard and splices the returned
// rows into its own envelope. parseShardPage validates a page and splits
// it into rows in a single pass over the body — no reflection, no second
// scan per row, no copy — and the append writers at the bottom of this
// file render the merged envelope directly.

// appRow is one listing row as fetched from a shard: the app's global ID
// (the merge key) plus the shard's exact encoded bytes, spliced verbatim
// into the assembled page so a row through the gateway is byte-identical
// to the same row from a single node. raw aliases the shard body.
type appRow struct {
	id  int32
	raw []byte
}

// listing is a parsed shard cursor page.
type listing struct {
	rows   []appRow
	cursor []byte // next_cursor's characters; empty when absent or null
	total  int
}

// pageError is a shard page the gateway refuses. syntax marks a body that
// is not JSON at all (json.Valid rejects exactly these); otherwise the
// body is JSON but not a listing page whose rows can be spliced.
type pageError struct {
	off    int
	syntax bool
	msg    string
}

func (e *pageError) Error() string {
	kind := "not a listing page"
	if e.syntax {
		kind = "invalid JSON"
	}
	return kind + " at offset " + strconv.Itoa(e.off) + ": " + e.msg
}

// maxDepth is encoding/json's nesting limit, kept so the scanner accepts
// exactly the documents json.Valid does.
const maxDepth = 10000

// String flags reported by pageScanner.str.
const (
	strEscaped  = 1 << iota // holds a backslash escape
	strNonASCII             // holds a byte >= 0x80
	strHTML                 // holds a byte encoding/json escapes for HTML: < > & U+2028 U+2029
)

// strClass classifies string bytes: 0 is an ordinary byte the scan just
// steps over.
var strClass = func() (t [256]uint8) {
	for c := 0; c < 0x20; c++ {
		t[c] = 1
	}
	for _, c := range `"\<>&` {
		t[c] = 1
	}
	for c := 0x80; c < 0x100; c++ {
		t[c] = 1
	}
	return t
}()

// pageKeys and rowKeys are the members the gateway reads; every other
// member is validated and skipped, as encoding/json skips unknown fields.
var (
	pageKeys = [...]string{"apps", "next_cursor", "total"}
	rowKeys  = [...]string{"id"}
)

const (
	keyApps = iota
	keyNext
	keyTotal
)

// pageScanner is one pass over a shard page. A syntax error stops the
// scan; a schema violation is recorded and the scan goes on, so the
// syntax verdict always covers the whole body.
type pageScanner struct {
	b     []byte
	i     int
	depth int
	// dirty is set by whitespace between tokens and by strings holding
	// HTML-sensitive bytes: a row that picked either up is not in the
	// shard encoder's canonical form and is rewritten into it.
	dirty  bool
	err    *pageError // syntax error
	schema *pageError // first schema violation
}

// parseShardPage validates b as a complete JSON document — with the
// grammar, escape rules and nesting limit of json.Valid — and, when it is
// a shard cursor page, returns its rows (appended to rows), next_cursor
// and total. Rows alias b unless they had to be canonicalised.
//
// Whatever the scanner accepts, a decode with encoding/json accepts too
// and reads the same rows, IDs, cursor and total. Where the two could
// disagree — object keys that only match after unescaping or case
// folding, repeated members, members of the wrong type — the page is
// refused instead.
func parseShardPage(b []byte, rows []appRow) (listing, error) {
	s := pageScanner{b: b}
	out := listing{rows: rows}
	if s.page(&out) {
		s.ws()
		if s.i < len(s.b) {
			s.fail("data after the top-level value")
		}
	}
	switch {
	case s.err != nil:
		return listing{}, s.err
	case s.schema != nil:
		return listing{}, s.schema
	}
	return out, nil
}

func (s *pageScanner) fail(msg string) bool {
	if s.err == nil {
		s.err = &pageError{off: s.i, syntax: true, msg: msg}
	}
	return false
}

func (s *pageScanner) reject(msg string) {
	if s.schema == nil {
		s.schema = &pageError{off: s.i, msg: msg}
	}
}

func (s *pageScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
			s.dirty = true
		default:
			return
		}
	}
}

// at reports whether the next byte is c.
func (s *pageScanner) at(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }

func (s *pageScanner) push() bool {
	s.depth++
	if s.depth > maxDepth {
		return s.fail("exceeded max depth")
	}
	return true
}

// next consumes the separator after a member or element: more reports
// a ',' (another member follows), !more && ok the closing byte.
func (s *pageScanner) next(close byte) (more, ok bool) {
	s.ws()
	if s.at(',') {
		s.i++
		s.ws()
		return true, true
	}
	if s.at(close) {
		s.i++
		s.depth--
		return false, true
	}
	if close == '}' {
		return false, s.fail("expected ',' or '}' after object member")
	}
	return false, s.fail("expected ',' or ']' after array element")
}

// open consumes an object or array's opening byte and reports whether it
// has members; an empty one is consumed whole.
func (s *pageScanner) open(close byte) (members, ok bool) {
	s.i++
	if !s.push() {
		return false, false
	}
	s.ws()
	if s.at(close) {
		s.i++
		s.depth--
		return false, true
	}
	return true, true
}

// key reads an object key and its ':' and returns the index of the key in
// names, or -1 for a member the caller skips. A key that is not a plain
// byte-exact spelling but which encoding/json could still match to one of
// names (case-insensitively, after unescaping, or by Unicode folding) is
// a schema violation.
func (s *pageScanner) key(names []string) (int, bool) {
	k, flags, ok := s.str()
	if !ok {
		return -1, false
	}
	s.ws()
	if !s.at(':') {
		return -1, s.fail("expected ':' after object key")
	}
	s.i++
	s.ws()
	if flags&(strEscaped|strNonASCII) != 0 {
		s.reject("object key is escaped or not ASCII")
		return -1, true
	}
	for i, n := range names {
		if string(k) == n {
			return i, true
		}
		if asciiEqualFold(k, n) {
			s.reject("key " + strconv.Quote(string(k)) + " is " + n + " in another case")
			return -1, true
		}
	}
	return -1, true
}

// asciiEqualFold reports whether k equals the lower-case name n with
// ASCII letters compared case-insensitively.
func asciiEqualFold(k []byte, n string) bool {
	if len(k) != len(n) {
		return false
	}
	for i, c := range k {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != n[i] {
			return false
		}
	}
	return true
}

// page scans the top-level value.
func (s *pageScanner) page(out *listing) bool {
	s.ws()
	if !s.at('{') {
		s.reject("page is not an object")
		return s.value()
	}
	members, ok := s.open('}')
	var seen [len(pageKeys)]bool
	for members && ok {
		var k int
		if k, ok = s.key(pageKeys[:]); !ok {
			break
		}
		if k >= 0 {
			if seen[k] {
				s.reject("repeated member " + pageKeys[k])
			}
			seen[k] = true
		}
		switch k {
		case keyApps:
			ok = s.apps(out)
		case keyNext:
			ok = s.cursor(out)
		case keyTotal:
			var v int64
			v, ok = s.integer(64, "total")
			out.total = int(v)
		default:
			ok = s.value()
		}
		if ok {
			members, ok = s.next('}')
		}
	}
	if ok && (!seen[keyApps] || !seen[keyTotal]) {
		s.reject("page lacks apps or total")
	}
	return ok
}

// apps scans the rows array.
func (s *pageScanner) apps(out *listing) bool {
	if !s.at('[') {
		s.reject("apps is not an array")
		return s.value()
	}
	members, ok := s.open(']')
	for members && ok {
		start := s.i
		s.dirty = false
		var id int32
		if id, ok = s.row(); !ok {
			break
		}
		raw := s.b[start:s.i]
		if s.dirty {
			raw = canonicalRow(raw)
		}
		out.rows = append(out.rows, appRow{id: id, raw: raw})
		members, ok = s.next(']')
	}
	return ok
}

// row scans one listing row and returns its id.
func (s *pageScanner) row() (int32, bool) {
	if !s.at('{') {
		s.reject("row is not an object")
		return 0, s.value()
	}
	members, ok := s.open('}')
	var id int64
	hasID := false
	for members && ok {
		var k int
		if k, ok = s.key(rowKeys[:]); !ok {
			break
		}
		if k == 0 {
			if hasID {
				s.reject("repeated member id")
			}
			hasID = true
			id, ok = s.integer(32, "id")
		} else {
			ok = s.value()
		}
		if ok {
			members, ok = s.next('}')
		}
	}
	if ok && !hasID {
		s.reject("row lacks id")
	}
	return int32(id), ok
}

// cursor scans next_cursor: a string of plain ASCII (a shard cursor is
// base64url), or null for none.
func (s *pageScanner) cursor(out *listing) bool {
	if !s.at('"') {
		if s.at('n') {
			return s.literal("null")
		}
		s.reject("next_cursor is not a string")
		return s.value()
	}
	v, flags, ok := s.str()
	if ok && flags&(strEscaped|strNonASCII) != 0 {
		s.reject("next_cursor is escaped or not ASCII")
	}
	out.cursor = v
	return ok
}

// integer scans a member that must be an integer fitting in bits.
func (s *pageScanner) integer(bits int, name string) (int64, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '-' && (s.b[s.i] < '0' || s.b[s.i] > '9') {
		s.reject(name + " is not a number")
		return 0, s.value()
	}
	start := s.i
	isInt, ok := s.number()
	if !ok {
		return 0, false
	}
	var v int64
	if isInt {
		v, isInt = parseInt(s.b[start:s.i], bits)
	}
	if !isInt {
		s.reject(name + " is not an integer of " + strconv.Itoa(bits) + " bits")
	}
	return v, true
}

// parseInt converts a validated integer literal (no fraction or
// exponent), reporting whether it
// fits a signed integer of the given width.
func parseInt(b []byte, bits int) (int64, bool) {
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	var u uint64
	for _, c := range b {
		d := uint64(c - '0')
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// value validates and skips one JSON value.
func (s *pageScanner) value() bool {
	if s.i >= len(s.b) {
		return s.fail("unexpected end of input")
	}
	switch c := s.b[s.i]; {
	case c == '{':
		members, ok := s.open('}')
		for members && ok {
			if _, _, ok = s.str(); !ok {
				break
			}
			s.ws()
			if !s.at(':') {
				return s.fail("expected ':' after object key")
			}
			s.i++
			s.ws()
			if ok = s.value(); ok {
				members, ok = s.next('}')
			}
		}
		return ok
	case c == '[':
		members, ok := s.open(']')
		for members && ok {
			if ok = s.value(); ok {
				members, ok = s.next(']')
			}
		}
		return ok
	case c == '"':
		_, _, ok := s.str()
		return ok
	case c == '-' || '0' <= c && c <= '9':
		_, ok := s.number()
		return ok
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return s.fail("invalid character " + strconv.QuoteRune(rune(s.b[s.i])) + " looking for a value")
}

func (s *pageScanner) literal(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		// Step to the first mismatching byte for the error offset.
		for j := 0; j < len(lit) && s.i < len(s.b) && s.b[s.i] == lit[j]; j++ {
			s.i++
		}
		return s.fail("invalid literal")
	}
	s.i += len(lit)
	return true
}

// str scans a string starting at its opening quote and returns its raw
// contents (escapes not decoded) and strEscaped/strNonASCII/strHTML flags.
func (s *pageScanner) str() ([]byte, uint8, bool) {
	if !s.at('"') {
		return nil, 0, s.fail("expected string")
	}
	s.i++
	start := s.i
	b := s.b
	var flags uint8
	for i := s.i; i < len(b); i++ {
		c := b[i]
		if strClass[c] == 0 {
			continue
		}
		switch {
		case c == '"':
			s.i = i + 1
			if flags&strHTML != 0 {
				s.dirty = true
			}
			return b[start:i], flags, true
		case c == '\\':
			flags |= strEscaped
			i++
			if i >= len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 0; j < 4; j++ {
					i++
					if i >= len(b) || !isHex(b[i]) {
						s.i = i
						return nil, 0, s.fail("invalid \\u escape in string")
					}
				}
			default:
				s.i = i
				return nil, 0, s.fail("invalid escape in string")
			}
		case c < 0x20:
			s.i = i
			return nil, 0, s.fail("control character in string")
		case c >= 0x80:
			flags |= strNonASCII
			if c == 0xE2 && i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8 {
				flags |= strHTML
			}
		default: // < > &
			flags |= strHTML
		}
	}
	s.i = len(b)
	return nil, 0, s.fail("unexpected end of input in string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number scans a number per RFC 8259 and reports whether it is an integer
// (no fraction, no exponent).
func (s *pageScanner) number() (isInt, ok bool) {
	b := s.b
	i := s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	default:
		if i > s.i {
			s.i = i
			return false, s.fail("expected digit after '-'")
		}
		return false, s.fail("expected a number")
	}
	isInt = true
	if i < len(b) && b[i] == '.' {
		isInt = false
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			s.i = i
			return false, s.fail("expected digit after decimal point")
		}
		for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		isInt = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			s.i = i
			return false, s.fail("expected digit in exponent")
		}
		for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	}
	s.i = i
	return isInt, true
}

// canonicalRow rewrites a valid row the way encoding/json renders a
// json.RawMessage with HTML escaping on — whitespace between tokens
// dropped; <, >, &, U+2028 and U+2029 escaped — which is the form the
// gateway has always served rows in. Shard-encoded rows are already in it;
// this is the slow path for anything else.
func canonicalRow(raw []byte) []byte {
	const hex = "0123456789abcdef"
	out := make([]byte, 0, len(raw)+16)
	inStr := false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c == '<' || c == '>' || c == '&':
			out = append(out, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			continue
		case c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8:
			out = append(out, '\\', 'u', '2', '0', '2', hex[raw[i+2]&0xF])
			i += 2
			continue
		case inStr && c == '\\':
			out = append(out, c, raw[i+1])
			i++
			continue
		case c == '"':
			inStr = !inStr
		case !inStr && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			continue
		}
		out = append(out, c)
	}
	return out
}

// --- pooled bodies ---------------------------------------------------------

// pageBuf is a shard page body and the row index into it. Merged rows
// alias the body, so a pageBuf goes back to the pool only once the merged
// page has been written.
type pageBuf struct {
	body []byte
	rows []appRow
}

var pageBufs = sync.Pool{New: func() any { return new(pageBuf) }}

// maxPooledBody caps the body capacity a pageBuf keeps across uses, and
// how far a declared Content-Length is trusted for pre-sizing.
const maxPooledBody = 4 << 20

// readPage reads a whole shard body into a pooled buffer, sized up front
// from the declared length when there is one.
func readPage(r io.Reader, contentLength int64) (*pageBuf, error) {
	pb := pageBufs.Get().(*pageBuf)
	b := pb.body[:0]
	if n := contentLength; n >= 0 && n < maxPooledBody && int(n) >= cap(b) {
		b = make([]byte, 0, n+1) // +1: the read that reports EOF needs room
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			pb.body = b
			return pb, nil
		}
		if err != nil {
			pb.body = b
			pb.release()
			return nil, err
		}
	}
}

func (pb *pageBuf) release() {
	if cap(pb.body) > maxPooledBody {
		pb.body = nil
	}
	clear(pb.rows) // drop references to canonicalised rows
	pb.rows = pb.rows[:0]
	pageBufs.Put(pb)
}

// --- merged page writers ---------------------------------------------------

// The writers render exactly what json.Encoder produces for
// storeserver.CursorPageJSON and storeserver.PageJSON — field order, the
// omitted empty next_cursor, the trailing newline — with each row's bytes
// copied in as they came from the shard. That is the whole of the
// byte-identity argument: the shards render rows with the same encoder a
// single node uses, and the envelope around them is a constant plus
// integers and a base64url cursor, none of which need escaping.

// appendCursorPage renders a merged cursor page. next is empty on the
// final page.
func appendCursorPage(dst []byte, rows [][]byte, next string, total int) []byte {
	dst = appendRows(dst, rows)
	if next != "" {
		dst = append(dst, `,"next_cursor":"`...)
		dst = append(dst, next...)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(total), 10)
	return append(dst, "}\n"...)
}

// appendPageZero renders page 0 in the page-addressed envelope.
func appendPageZero(dst []byte, rows [][]byte, pages, total int) []byte {
	dst = appendRows(dst, rows)
	dst = append(dst, `,"page":0,"pages":`...)
	dst = strconv.AppendInt(dst, int64(pages), 10)
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(total), 10)
	return append(dst, "}\n"...)
}

func appendRows(dst []byte, rows [][]byte) []byte {
	dst = append(dst, `{"apps":[`...)
	for i, r := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, r...)
	}
	return append(dst, ']')
}

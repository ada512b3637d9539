// Response rendering: every JSON body the server sends is appended into
// one pooled byte buffer by jsonWriter and leaves in a single Write with
// a Content-Length. The output is byte-for-byte what
// json.Encoder + SetIndent("", "  ") produces for the same document —
// same escapes, same float spelling, same two-space layout, same
// trailing newline — so clients, the golden traces and the sharded byte
// comparison cannot tell the difference; only the reflection, the
// per-request payload maps and the second Indent pass are gone. Objects
// have no key order of their own: callers emit keys in the order
// encoding/json would (sorted for what used to be maps, declaration
// order for what used to be structs). A run of equal floats is
// formatted once — a repeat of the last number copies its bytes — and
// a ranked row's fixed text is appended from constants. See
// docs/ARCHITECTURE.md ("Response rendering").

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"hinet/internal/obs"
)

// jsonWriter appends one indented JSON document to buf. The first
// failure (a non-finite float, an unmarshalable value) is kept in err
// and turns the response into a 500 at send time.
type jsonWriter struct {
	buf      []byte
	depth    int
	more     bool // the open container already holds an element
	afterKey bool // a key was just written: the next value follows it inline
	err      error

	// The last finite float written: its bits and buf[numAt:numEnd], its
	// spelling. numEnd == 0 means none yet. The spelling depends on the
	// bits alone, so a repeat (ties sit side by side in a ranked list)
	// copies the bytes instead of formatting again. reset clears it: the
	// memo lives for one body.
	numBits       uint64
	numAt, numEnd int
}

// Pooled buffers start at 2 KiB (most bodies) and grow on demand; one
// that grew past maxPooledJSON is dropped on release, so a rare huge
// body (a full-population /v1/rank) cannot pin its buffer in the pool.
const maxPooledJSON = 64 << 10

var jsonWriters = sync.Pool{New: func() any { return &jsonWriter{buf: make([]byte, 0, 2<<10)} }}

func newJSONWriter() *jsonWriter { return jsonWriters.Get().(*jsonWriter) }

func (w *jsonWriter) reset() { *w = jsonWriter{buf: w.buf[:0]} }

func (w *jsonWriter) release() {
	if cap(w.buf) > maxPooledJSON {
		return
	}
	w.reset()
	jsonWriters.Put(w)
}

// send completes the document and writes it as the whole response. A
// document that failed to encode becomes a 500 with an error body:
// nothing has reached the client yet, so the status can still say so.
func (w *jsonWriter) send(rw http.ResponseWriter, code int) {
	if w.err != nil {
		err := w.err
		w.reset()
		code = http.StatusInternalServerError
		w.errorBody(fmt.Sprintf("encoding response: %v", err))
	}
	w.buf = append(w.buf, '\n')
	// Canonical keys assigned directly: Header.Set would canonicalize
	// them and allocate a fresh slice for the constant type.
	h := rw.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(w.buf))}
	rw.WriteHeader(code)
	_, _ = rw.Write(w.buf) // a failed write means the client is gone: nobody left to tell
	w.release()
}

func (w *jsonWriter) errorBody(msg string) {
	w.beginObject()
	w.key("error").str(msg)
	w.endObject()
}

// jsonContentType is every response's Content-Type value, shared by
// all of them: net/http only reads a header's values.
var jsonContentType = []string{"application/json"}

// newlineIndent is a line break followed by the indentation of depth
// 32, deeper than any body the server writes nests its own containers.
const newlineIndent = "\n" +
	"                                " +
	"                                "

// indent is the line break and two-space indentation that start a line
// at depth d.
func indent(d int) string {
	if n := 1 + 2*d; n <= len(newlineIndent) {
		return newlineIndent[:n]
	}
	return "\n" + strings.Repeat("  ", d)
}

func (w *jsonWriter) newline() { w.buf = append(w.buf, indent(w.depth)...) }

// element positions the next key or array element on its own line.
func (w *jsonWriter) element() {
	if w.more {
		w.buf = append(w.buf, ',')
	}
	w.newline()
	w.more = true
}

// place positions the next value: inline after a key, on its own line
// inside an array, and as is at the top level.
func (w *jsonWriter) place() {
	if w.afterKey {
		w.afterKey = false
	} else if w.depth > 0 {
		w.element()
	}
}

func (w *jsonWriter) begin(open byte) {
	w.place()
	w.buf = append(w.buf, open)
	w.depth++
	w.more = false
}

// end closes a container; an empty one closes on the same line ("[]",
// "{}"), as json.Indent lays it out.
func (w *jsonWriter) end(closing byte) {
	w.depth--
	if w.more {
		w.newline()
	}
	w.buf = append(w.buf, closing)
	w.more = true
}

func (w *jsonWriter) beginObject() { w.begin('{') }
func (w *jsonWriter) endObject()   { w.end('}') }
func (w *jsonWriter) beginArray()  { w.begin('[') }
func (w *jsonWriter) endArray()    { w.end(']') }

// key starts an object member; the returned writer takes its value.
func (w *jsonWriter) key(k string) *jsonWriter {
	w.element()
	w.buf = appendJSONString(w.buf, k)
	w.buf = append(w.buf, ':', ' ')
	w.afterKey = true
	return w
}

func (w *jsonWriter) integer(n int64) {
	w.place()
	w.buf = strconv.AppendInt(w.buf, n, 10)
}

func (w *jsonWriter) unsigned(n uint64) {
	w.place()
	w.buf = strconv.AppendUint(w.buf, n, 10)
}

func (w *jsonWriter) boolean(b bool) {
	w.place()
	w.buf = strconv.AppendBool(w.buf, b)
}

func (w *jsonWriter) str(s string) {
	w.place()
	w.buf = appendJSONString(w.buf, s)
}

// float writes f as encoding/json spells a float64: shortest 'f' form,
// or 'e' below 1e-6 and from 1e21 with a two-digit negative exponent's
// leading zero dropped. NaN and ±Inf have no JSON form and fail the
// document.
func (w *jsonWriter) float(f float64) {
	w.place()
	bits := math.Float64bits(f)
	if w.numEnd != 0 && bits == w.numBits {
		w.buf = append(w.buf, w.buf[w.numAt:w.numEnd]...)
		return
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = fmt.Errorf("unsupported number %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		w.buf = append(w.buf, "null"...)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	at := len(w.buf)
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if n := len(w.buf); format == 'e' && n >= 4 && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
		w.buf[n-2] = w.buf[n-1]
		w.buf = w.buf[:n-1]
	}
	w.numBits, w.numAt, w.numEnd = bits, at, len(w.buf)
}

// scored writes one (id, name, score) row of a ranked answer, as an
// element of the open array. A hundred of these are most of a top-k
// body, so the row's fixed text — braces, the three keys, separators
// and both indentations — is appended from constants, and only the id,
// the name and the score are formatted.
func (w *jsonWriter) scored(id int, name string, score float64) {
	w.element()
	inner := indent(w.depth + 1)
	w.buf = append(w.buf, '{')
	w.buf = append(w.buf, inner...)
	w.buf = append(w.buf, `"id": `...)
	w.buf = strconv.AppendInt(w.buf, int64(id), 10)
	w.buf = append(w.buf, ',')
	w.buf = append(w.buf, inner...)
	w.buf = append(w.buf, `"name": `...)
	w.buf = appendJSONString(w.buf, name)
	w.buf = append(w.buf, ',')
	w.buf = append(w.buf, inner...)
	w.buf = append(w.buf, `"score": `...)
	w.afterKey = true
	w.float(score)
	w.newline()
	w.buf = append(w.buf, '}')
}

// traceEcho writes the request's own span tree as the "trace" member
// when the client asked for it with debug=1 — call it where "trace"
// sorts among the body's keys. The trace is still open — the serialize
// span is rendered up to "now" — which is exactly what the client can
// observe from inside the request.
func (w *jsonWriter) traceEcho(q url.Values, tr *obs.Trace) {
	if tr != nil && q.Get("debug") == "1" {
		w.key("trace").value(tr.Snapshot())
	}
}

// value is the escape hatch for documents without a fixed shape (span
// trees): v goes through encoding/json and is re-indented at the
// current depth.
func (w *jsonWriter) value(v any) {
	w.place()
	compact, err := json.Marshal(v)
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		w.buf = append(w.buf, "null"...)
		return
	}
	out := bytes.NewBuffer(w.buf)
	_ = json.Indent(out, compact, strings.Repeat("  ", w.depth), "  ") // Marshal's own output: always valid
	w.buf = out.Bytes()
}

const hexDigits = "0123456789abcdef"

// ones and highs repeat 0x01 and 0x80 in each byte of a word.
const ones, highs = 0x0101010101010101, 0x8080808080808080

// hasZeroByte reports whether some byte of v is zero.
func hasZeroByte(v uint64) bool { return (v-ones)&^v&highs != 0 }

// wordVerbatim reports whether all eight bytes of x go into a JSON
// string as they are: none from 0x80, none below the space, none of `"`
// or `&` (0x22, 0x26: equal once bit 2 is masked off), `<` or `>`
// (0x3C, 0x3E: bit 1), or `\`. A byte that needs escaping is never
// missed; a stray borrow may flag a clean word, which the byte loop then
// walks.
func wordVerbatim(x uint64) bool {
	return x&highs == 0 && (x-0x20*ones)&^x&highs == 0 &&
		!hasZeroByte((x^0x22*ones)&(0xFB*ones)) &&
		!hasZeroByte((x^0x3C*ones)&(0xFD*ones)) &&
		!hasZeroByte(x^0x5C*ones)
}

// appendJSONString quotes s with encoding/json's default (HTML-safe)
// escaping: `"` and `\` backslashed; \b \f \n \r \t short forms; other
// control bytes, `<`, `>` and `&` as \u00XX; U+2028/U+2029 as \u202X;
// invalid UTF-8 as \ufffd; everything else verbatim. Plain ASCII — every
// name and path the corpus generator produces — is one scan, eight
// bytes a step, and one append.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if i+8 <= len(s) {
			x := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
				uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
			if wordVerbatim(x) {
				i += 8
				continue
			}
		}
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

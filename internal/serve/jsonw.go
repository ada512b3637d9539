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
// order for what used to be structs). See docs/ARCHITECTURE.md
// ("Response rendering").

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
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
	h := rw.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(w.buf)))
	rw.WriteHeader(code)
	_, _ = rw.Write(w.buf) // a failed write means the client is gone: nobody left to tell
	w.release()
}

func (w *jsonWriter) errorBody(msg string) {
	w.beginObject()
	w.key("error").str(msg)
	w.endObject()
}

func (w *jsonWriter) newline() {
	w.buf = append(w.buf, '\n')
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

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
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if n := len(w.buf); format == 'e' && n >= 4 && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
		w.buf[n-2] = w.buf[n-1]
		w.buf = w.buf[:n-1]
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

// appendJSONString quotes s with encoding/json's default (HTML-safe)
// escaping: `"` and `\` backslashed; \b \f \n \r \t short forms; other
// control bytes, `<`, `>` and `&` as \u00XX; U+2028/U+2029 as \u202X;
// invalid UTF-8 as \ufffd; everything else verbatim. Plain ASCII — every
// name and path the corpus generator produces — is one scan and one
// append.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
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

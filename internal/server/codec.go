package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unsafe"

	"proximity/internal/vec"
)

// ContentTypeF32 marks a request body of raw little-endian float32
// components with no framing: exactly 4·dim bytes on /v1/retrieve, a
// non-zero multiple of 4·dim bytes (at most MaxBatchElements vectors) on
// /v1/retrieve/batch. The server knows dim from its database, so the
// length is the only header the format needs. Responses stay JSON.
//
// The format is the same on every host. On a little-endian host it is
// also a []float32's memory, so there the client sends an embedding's
// own bytes and DecodeF32 copies the body into its result in one piece;
// other hosts convert component by component.
const ContentTypeF32 = "application/x-proximity-f32"

// nativeF32 reports whether a float32's memory is its ContentTypeF32
// encoding, as on little-endian hosts. Tests clear it to drive the
// portable per-component conversions.
var nativeF32 = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32Bytes returns v's memory as bytes; only nativeF32 makes them v's
// ContentTypeF32 encoding.
func f32Bytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// bodyBufs holds the byte buffers request bodies are read into and
// retrieve replies are laid out in. Only the bytes are pooled: the
// decoded []float32 is handed to the retriever, and the batch pipeline
// may still hold it after a cancelled handler has returned.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// f32BodyLimit is the most bytes DecodeF32 reads for maxVecs vectors: the
// payload plus one spare vector, so that a body a few components (or one
// batch element) too long gets the 400 that names its length, not a 413.
func f32BodyLimit(dim, maxVecs int) int { return 4 * dim * (maxVecs + 1) }

// DecodeF32 reads a ContentTypeF32 body and returns its vectors back to
// back: n·dim floats, 1 ≤ n ≤ maxVecs (dim and maxVecs positive). A
// length that is not such a multiple of 4·dim is refused with an error
// wrapping vec.ErrDimensionMismatch, a NaN or ±Inf component with a plain
// error, and a body over f32BodyLimit with the *http.MaxBytesError of
// http.MaxBytesReader (w may be nil outside a handler). The result is
// freshly allocated and is the call's only allocation in steady state.
// Where nativeF32 holds, the body is copied into it in bulk and checked
// with vec.Finite; the per-component loop then runs only to name a
// non-finite component.
//
//proximity:hotpath
func DecodeF32(w http.ResponseWriter, body io.ReadCloser, dim, maxVecs int) ([]float32, error) {
	stride, limit := 4*dim, f32BodyLimit(dim, maxVecs)
	limited := http.MaxBytesReader(w, body, int64(limit))
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	buf := (*bp)[:0]
	for {
		if len(buf) == cap(buf) {
			// MaxBytesReader hands out at most limit bytes, so limit+1
			// always leaves room for the Read that reports the end.
			//proximity:allow hotpathalloc grow-once pooled buffer, bounded by the body limit
			grown := make([]byte, len(buf), min(max(2*cap(buf), stride+1), limit+1))
			copy(grown, buf)
			buf = grown
			*bp = buf
		}
		n, err := limited.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			//proximity:allow hotpathalloc cold rejection path
			return nil, fmt.Errorf("read body: %w", err)
		}
	}
	if len(buf) == 0 || len(buf)%stride != 0 {
		//proximity:allow hotpathalloc cold rejection path
		return nil, fmt.Errorf("body of %d bytes is not a multiple of %d (dim %d × 4): %w",
			len(buf), stride, dim, vec.ErrDimensionMismatch)
	}
	if n := len(buf) / stride; n > maxVecs {
		//proximity:allow hotpathalloc cold rejection path
		return nil, fmt.Errorf("body holds %d vectors, limit %d", n, maxVecs)
	}
	//proximity:allow hotpathalloc the budgeted caller-owned embedding (DecodeF32's one allocation)
	out := make([]float32, len(buf)/4)
	if nativeF32 {
		copy(f32Bytes(out), buf)
		if vec.Finite(out) {
			return out, nil
		}
	}
	for i := range out {
		bits := binary.LittleEndian.Uint32(buf[4*i:])
		if bits&0x7f800000 == 0x7f800000 {
			//proximity:allow hotpathalloc cold rejection path
			return nil, fmt.Errorf("component %d is not finite (%v)", i, math.Float32frombits(bits))
		}
		out[i] = math.Float32frombits(bits)
	}
	return out, nil
}

// encodeF32 is the client side of DecodeF32: the vectors' components,
// back to back, in a new buffer.
func encodeF32(vecs ...[]float32) []byte {
	n := 0
	for _, v := range vecs {
		n += len(v)
	}
	body := make([]byte, 0, 4*n)
	for _, v := range vecs {
		if nativeF32 {
			body = append(body, f32Bytes(v)...)
			continue
		}
		for _, x := range v {
			body = binary.LittleEndian.AppendUint32(body, math.Float32bits(x))
		}
	}
	return body
}

// f32Body is encodeF32(v) without the copy where nativeF32 holds: v's
// own memory, which the caller must not change until the call is over.
func f32Body(v []float32) []byte {
	if nativeF32 {
		return f32Bytes(v)
	}
	return encodeF32(v)
}

// sameLength reports whether vecs can travel as one ContentTypeF32 body:
// the format has no framing, so if lengths differ (some element has the
// wrong dimension) the server could not tell where one vector ends.
func sameLength(vecs [][]float32) bool {
	for _, v := range vecs {
		if len(v) != len(vecs[0]) {
			return false
		}
	}
	return true
}

// appendRetrieveReply appends resp as json.NewEncoder(w).Encode(resp)
// writes it, byte for byte and newline included, and reports true; or
// appends nothing and reports false when resp has Texts, or a float that
// encoding/json prints with an exponent or refuses (NaN, ±Inf): the
// caller then encodes it with encoding/json.
func appendRetrieveReply(b []byte, resp *RetrieveResponse) ([]byte, bool) {
	if len(resp.Texts) > 0 || !plainFloat(resp.CacheMicros) || !plainFloat(resp.DBMillis) {
		return b, false
	}
	b = append(b, `{"docs":`...)
	if resp.Docs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, d := range resp.Docs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(d), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"hit":`...)
	b = strconv.AppendBool(b, resp.Hit)
	b = append(b, `,"cacheLookupMicros":`...)
	b = strconv.AppendFloat(b, resp.CacheMicros, 'f', -1, 64)
	b = append(b, `,"dbServiceMillis":`...)
	b = strconv.AppendFloat(b, resp.DBMillis, 'f', -1, 64)
	return append(b, "}\n"...), true
}

// plainFloat reports whether encoding/json prints x in 'f' format: zero,
// or a magnitude in [1e-6, 1e21).
func plainFloat(x float64) bool {
	a := math.Abs(x)
	return a == 0 || a >= 1e-6 && a < 1e21
}

// parseRetrieveReply decodes a body in exactly appendRetrieveReply's
// layout into out, as json.Unmarshal would into a zero RetrieveResponse,
// and reports whether the body had that layout; out is untouched when it
// did not. Any other valid JSON (other spacing, key order, number forms,
// or Texts) is json.Unmarshal's to decode.
func parseRetrieveReply(body []byte, out *RetrieveResponse) bool {
	p := replyParser{b: body}
	var docs []int
	switch {
	case !p.lit(`{"docs":`):
		return false
	case p.lit("null"):
	case p.lit("["):
		end := bytes.IndexByte(p.b[p.i:], ']')
		if end < 0 {
			return false
		}
		docs = make([]int, 0, 1+bytes.Count(p.b[p.i:p.i+end], []byte{','}))
		for !p.lit("]") {
			if len(docs) > 0 && !p.lit(",") {
				return false
			}
			d, ok := p.int()
			if !ok {
				return false
			}
			docs = append(docs, d)
		}
	default:
		return false
	}
	hit := p.lit(`,"hit":true`)
	if !hit && !p.lit(`,"hit":false`) {
		return false
	}
	if !p.lit(`,"cacheLookupMicros":`) {
		return false
	}
	micros, ok := p.float()
	if !ok || !p.lit(`,"dbServiceMillis":`) {
		return false
	}
	millis, ok := p.float()
	if !ok || !p.lit("}") {
		return false
	}
	if rest := p.b[p.i:]; len(rest) > 1 || len(rest) == 1 && rest[0] != '\n' {
		return false
	}
	out.Docs, out.Hit, out.CacheMicros, out.DBMillis = docs, hit, micros, millis
	return true
}

// replyParser is parseRetrieveReply's cursor over a body.
type replyParser struct {
	b []byte
	i int
}

// lit consumes s if the body continues with it.
func (p *replyParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// digits consumes a run of decimal digits and returns its length.
func (p *replyParser) digits() int {
	j := p.i
	for j < len(p.b) && '0' <= p.b[j] && p.b[j] <= '9' {
		j++
	}
	n := j - p.i
	p.i = j
	return n
}

// int consumes an integer as strconv.AppendInt writes one: 0, or an
// optional minus and digits without a leading zero, within int's range.
func (p *replyParser) int() (int, bool) {
	start := p.i
	p.lit("-")
	first := p.i
	if p.digits() == 0 || p.b[first] == '0' && (p.i-first > 1 || first > start) {
		return 0, false
	}
	d, err := strconv.ParseInt(string(p.b[start:p.i]), 10, 0)
	return int(d), err == nil
}

// float consumes a number in 'f' format — an optional minus, 0 or
// digits without a leading zero, an optional fraction — and parses it
// as json.Unmarshal does.
func (p *replyParser) float() (float64, bool) {
	start := p.i
	p.lit("-")
	first := p.i
	if n := p.digits(); n == 0 || n > 1 && p.b[first] == '0' {
		return 0, false
	}
	if p.lit(".") && p.digits() == 0 {
		return 0, false
	}
	x, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return x, err == nil
}

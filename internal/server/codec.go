package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"

	"proximity/internal/vec"
)

// ContentTypeF32 marks a request body of raw little-endian float32
// components with no framing: exactly 4·dim bytes on /v1/retrieve, a
// non-zero multiple of 4·dim bytes (at most MaxBatchElements vectors) on
// /v1/retrieve/batch. The server knows dim from its database, so the
// length is the only header the format needs. Responses stay JSON.
const ContentTypeF32 = "application/x-proximity-f32"

// bodyBufs holds the byte buffers request bodies are read into. Only the
// bytes are pooled: the decoded []float32 is handed to the retriever,
// and the batch pipeline may still hold it after a cancelled handler has
// returned.
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
// back to back.
func encodeF32(vecs ...[]float32) []byte {
	n := 0
	for _, v := range vecs {
		n += len(v)
	}
	body := make([]byte, 0, 4*n)
	for _, v := range vecs {
		for _, x := range v {
			body = binary.LittleEndian.AppendUint32(body, math.Float32bits(x))
		}
	}
	return body
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

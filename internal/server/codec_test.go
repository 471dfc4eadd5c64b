package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"proximity/internal/batch"
	"proximity/internal/core"
	"proximity/internal/shard"
	"proximity/internal/tier"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// meteredBody hands a body out at most chunk bytes per Read and counts
// what the decoder took.
type meteredBody struct {
	r     io.Reader
	chunk int
	taken int
}

func (m *meteredBody) Read(p []byte) (int, error) {
	if len(p) > m.chunk {
		p = p[:m.chunk]
	}
	n, err := m.r.Read(p)
	m.taken += n
	return n, err
}

func (*meteredBody) Close() error { return nil }

// FuzzDecodeF32 holds DecodeF32 to its contract on arbitrary bodies, as a
// single request (maxVecs 1) and as a batch: no panic; never more than
// the body limit (and the one byte that proves it exceeded) taken from
// the wire; accepted if and only if the length is a whole number of
// vectors within maxVecs and every component is finite; and what is
// accepted is the input floats bit for bit.
func FuzzDecodeF32(f *testing.F) {
	one := encodeF32([]float32{1, -2.5, 3e-9, 0})
	f.Add(one, uint8(3), uint8(0), uint8(200))                // a single vector
	f.Add(append(one, one...), uint8(3), uint8(3), uint8(5))  // a batch of two, dribbled in
	f.Add(one[:len(one)-1], uint8(3), uint8(0), uint8(200))   // truncated
	f.Add(append(one, one...), uint8(3), uint8(0), uint8(16)) // one vector too many
	f.Add(encodeF32([]float32{1, float32(math.NaN()), 3, 4}), uint8(3), uint8(0), uint8(200))
	f.Add(encodeF32([]float32{1, 2, 3, float32(math.Inf(-1))}), uint8(3), uint8(1), uint8(7))
	f.Add(bytes.Repeat(one, 40), uint8(3), uint8(2), uint8(64)) // far over the limit
	f.Add([]byte{}, uint8(0), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, dimSeed, vecSeed, chunkSeed uint8) {
		dim, maxVecs := 1+int(dimSeed%8), 1+int(vecSeed%4)
		stride, limit := 4*dim, f32BodyLimit(dim, maxVecs)
		body := &meteredBody{r: bytes.NewReader(data), chunk: 1 + int(chunkSeed)}
		got, err := DecodeF32(nil, body, dim, maxVecs)

		if body.taken > limit+1 {
			t.Fatalf("took %d bytes of a %d-byte body, limit %d", body.taken, len(data), limit)
		}
		// What the contract says about this body, most general fault first.
		var tooLarge *http.MaxBytesError
		switch n := len(data) / stride; {
		case len(data) > limit:
			if !errors.As(err, &tooLarge) {
				t.Fatalf("%d bytes against a limit of %d: err %v, want *http.MaxBytesError", len(data), limit, err)
			}
		case len(data) == 0 || len(data)%stride != 0:
			if !errors.Is(err, vec.ErrDimensionMismatch) {
				t.Fatalf("%d bytes, stride %d: err %v, want a dimension mismatch", len(data), stride, err)
			}
		case n > maxVecs:
			if err == nil || errors.As(err, &tooLarge) {
				t.Fatalf("%d vectors, maxVecs %d: err %v, want a plain refusal", n, maxVecs, err)
			}
		case !allFinite(data):
			if err == nil {
				t.Fatalf("accepted a non-finite component: %v", got)
			}
		case err != nil:
			t.Fatalf("%d vectors of dim %d, all finite: err %v", n, dim, err)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("a refused body still returned %d floats", len(got))
			}
			return
		}
		if !bytes.Equal(encodeF32(got), data) {
			t.Fatalf("decoded floats differ from the body: %v", got)
		}
	})
}

func allFinite(body []byte) bool {
	for i := 0; i+4 <= len(body); i += 4 {
		x := float64(math.Float32frombits(binary.LittleEndian.Uint32(body[i:])))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// TestDecodeF32StopsAtTheLimit: a peer that never stops sending costs
// the decoder the body limit and not a byte of buffer more.
func TestDecodeF32StopsAtTheLimit(t *testing.T) {
	const dim, maxVecs = 16, 3
	body := &meteredBody{r: neverEnding{}, chunk: 1 << 20}
	_, err := DecodeF32(nil, body, dim, maxVecs)
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("endless body: err %v, want *http.MaxBytesError", err)
	}
	if limit := f32BodyLimit(dim, maxVecs); body.taken > limit+1 {
		t.Errorf("read %d bytes, limit %d", body.taken, limit)
	}
}

type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) { return len(p), nil }

// cacheShapes are the caches the wire tests put behind a server: each
// variant the benchmark or the cluster serves from, bare and sharded.
func cacheShapes(t *testing.T, dim int) map[string]func() (core.Cache, error) {
	flat := core.Options{Capacity: 8, Tolerance: 1, Policy: core.LRU}
	lsh := core.LSHOptions{Bits: 3, BucketCapacity: 4, Tolerance: 1, Seed: 1}
	tiered := func() tier.Options {
		return tier.Options{HotCapacity: 2, WarmCapacity: 6, Tolerance: 1, Dir: t.TempDir()}
	}
	return map[string]func() (core.Cache, error){
		"flat":           func() (core.Cache, error) { return core.NewFlat(dim, flat) },
		"lsh":            func() (core.Cache, error) { return core.NewLSH(dim, lsh) },
		"tiered":         func() (core.Cache, error) { return tier.New(dim, tiered()) },
		"sharded-flat":   func() (core.Cache, error) { return shard.NewFlat(dim, 2, flat, 1) },
		"sharded-lsh":    func() (core.Cache, error) { return shard.NewLSH(dim, 2, lsh) },
		"sharded-tiered": func() (core.Cache, error) { return shard.NewTiered(dim, 2, tiered(), 1) },
	}
}

// serveCache puts newCache's cache in front of a database of n random
// documents and serves it, with the misses going through a batch
// pipeline when pipeline is set; the documents double as queries.
func serveCache(t *testing.T, dim, n int, newCache func() (core.Cache, error), pipeline bool) (*httptest.Server, core.Cache, []vec.Vector) {
	t.Helper()
	db, err := vectordb.NewFlatIndex(dim, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(7)
	docs := make([]vec.Vector, n)
	for i := range docs {
		docs[i] = vec.Scale(vec.RandomGaussian(rng, dim), 4)
		if err := db.Add(docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := newCache()
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := cache.(io.Closer); ok {
		t.Cleanup(func() { c.Close() })
	}
	opts := core.RetrieverOptions{K: 2}
	if pipeline {
		pipe, err := batch.New(db)
		if err != nil {
			t.Fatal(err)
		}
		opts.Searcher = pipe
	}
	retr, err := core.NewCachedRetriever(cache, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Retriever: retr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, cache, docs
}

// postRaw posts body as it is and returns the status with the decoded
// reply: out on 200, the server's error message otherwise.
func postRaw(t *testing.T, url, contentType string, body []byte, out any) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("status %d without a JSON error body: %v", resp.StatusCode, err)
		}
		return resp.StatusCode, e.Error
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ""
}

// TestEncodingsAgree: one embedding sent as JSON and as float32 bytes is
// the same query — same documents, same hit or miss — on every cache
// shape, single and batched; and the client's own (binary) calls agree
// with both.
func TestEncodingsAgree(t *testing.T) {
	const dim = 16
	for name, newCache := range cacheShapes(t, dim) {
		t.Run(name, func(t *testing.T) {
			// Two servers with identical state, one per encoding, so that the
			// second asking of a query is a hit on both for the same reason.
			var ts [2]*httptest.Server
			var docs []vec.Vector
			for i := range ts {
				ts[i], _, docs = serveCache(t, dim, 12, newCache, false)
			}
			queries := append(append([]vec.Vector{}, docs...), docs[8:]...) // misses, then hits
			hits := 0
			for i, q := range queries {
				jsonBody, err := json.Marshal(RetrieveRequest{Embedding: q})
				if err != nil {
					t.Fatal(err)
				}
				var viaJSON, viaF32 RetrieveResponse
				if code, msg := postRaw(t, ts[0].URL+"/v1/retrieve", "application/json; charset=utf-8", jsonBody, &viaJSON); code != 200 {
					t.Fatalf("query %d as JSON: %d %s", i, code, msg)
				}
				if code, msg := postRaw(t, ts[1].URL+"/v1/retrieve", ContentTypeF32, encodeF32(q), &viaF32); code != 200 {
					t.Fatalf("query %d as f32: %d %s", i, code, msg)
				}
				if !reflect.DeepEqual(viaJSON.Docs, viaF32.Docs) || viaJSON.Hit != viaF32.Hit {
					t.Errorf("query %d: JSON %v hit=%v, f32 %v hit=%v", i, viaJSON.Docs, viaJSON.Hit, viaF32.Docs, viaF32.Hit)
				}
				if viaF32.Hit {
					hits++
				}
			}
			if hits == 0 {
				t.Error("no query hit: the comparison never saw the cache answer")
			}

			// Batched, against the state the singles left behind: every
			// element is now decided by the cache or the database alone.
			batch := [][]float32{docs[11], docs[0], docs[10]}
			jsonBody, err := json.Marshal(BatchRetrieveRequest{Embeddings: batch})
			if err != nil {
				t.Fatal(err)
			}
			var viaJSON, viaF32 BatchRetrieveResponse
			if code, msg := postRaw(t, ts[0].URL+"/v1/retrieve/batch", "application/json", jsonBody, &viaJSON); code != 200 {
				t.Fatalf("batch as JSON: %d %s", code, msg)
			}
			if code, msg := postRaw(t, ts[1].URL+"/v1/retrieve/batch", ContentTypeF32, encodeF32(batch...), &viaF32); code != 200 {
				t.Fatalf("batch as f32: %d %s", code, msg)
			}
			if !reflect.DeepEqual(viaJSON, viaF32) || len(viaF32.Results) != len(batch) {
				t.Errorf("batch: JSON %+v, f32 %+v", viaJSON, viaF32)
			}
			viaClient, err := NewClient(ts[0].URL).RetrieveBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, item := range viaClient.Results {
				if !reflect.DeepEqual(item.Docs, viaF32.Results[i].Docs) {
					t.Errorf("batch element %d: client %v, raw f32 %v", i, item.Docs, viaF32.Results[i].Docs)
				}
			}
		})
	}
}

// TestBadBodiesAreTyped4xx: every malformed request body gets the status
// that names its fault — 400 malformed, 413 over the size limit, 415
// unknown encoding — with a JSON error message, in both encodings on
// both endpoints, and the server keeps serving.
func TestBadBodiesAreTyped4xx(t *testing.T) {
	const dim = 8
	ts, _, docs := serveCache(t, dim, 4, cacheShapes(t, dim)["lsh"], false)
	good := docs[0]
	with := func(i int, x float32) []float32 {
		v := vec.Clone(good)
		v[i] = x
		return v
	}
	repeat := func(n int) [][]float32 {
		out := make([][]float32, n)
		for i := range out {
			out[i] = good
		}
		return out
	}
	jsonOf := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// JSON has no NaN or Inf literal; these are what a careless encoder
	// emits instead.
	jsonFloats := strings.TrimSuffix(strings.Repeat("0.5,", dim-1), ",")
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	longer := append(vec.Clone(good), 1)

	const single, batch = "/v1/retrieve", "/v1/retrieve/batch"
	cases := []struct {
		name, path, contentType string
		body                    []byte
		want                    int
	}{
		{"f32 single empty", single, ContentTypeF32, nil, 400},
		{"f32 single truncated", single, ContentTypeF32, encodeF32(good)[:4*dim-1], 400},
		{"f32 single NaN", single, ContentTypeF32, encodeF32(with(3, nan)), 400},
		{"f32 single Inf", single, ContentTypeF32, encodeF32(with(0, inf)), 400},
		{"f32 single wrong dim", single, ContentTypeF32, encodeF32(longer), 400},
		{"f32 single two vectors", single, ContentTypeF32, encodeF32(good, good), 400},
		{"f32 single oversized", single, ContentTypeF32, encodeF32(repeat(3)...), 413},

		{"f32 batch empty", batch, ContentTypeF32, nil, 400},
		{"f32 batch truncated", batch, ContentTypeF32, encodeF32(good, good)[:8*dim-1], 400},
		{"f32 batch NaN", batch, ContentTypeF32, encodeF32(good, with(dim-1, nan)), 400},
		{"f32 batch Inf", batch, ContentTypeF32, encodeF32(good, with(1, -inf)), 400},
		{"f32 batch wrong dim", batch, ContentTypeF32, encodeF32(good, longer), 400},
		{"f32 batch 257 elements", batch, ContentTypeF32, encodeF32(repeat(MaxBatchElements + 1)...), 400},
		{"f32 batch oversized", batch, ContentTypeF32, encodeF32(repeat(MaxBatchElements + 3)...), 413},

		{"json single empty", single, "application/json", nil, 400},
		{"json single no embedding", single, "application/json", []byte(`{}`), 400},
		{"json single truncated", single, "application/json", jsonOf(RetrieveRequest{good})[:20], 400},
		{"json single NaN", single, "application/json", []byte(`{"embedding":[NaN,` + jsonFloats + `]}`), 400},
		{"json single Inf", single, "application/json", []byte(`{"embedding":[1e999,` + jsonFloats + `]}`), 400},
		{"json single wrong dim", single, "application/json", jsonOf(RetrieveRequest{longer}), 400},
		{"json single oversized", single, "application/json", jsonOf(RetrieveRequest{make([]float32, 4096)}), 413},

		{"json batch empty", batch, "application/json", nil, 400},
		{"json batch no embeddings", batch, "application/json", []byte(`{"embeddings":[]}`), 400},
		{"json batch truncated", batch, "application/json", jsonOf(BatchRetrieveRequest{repeat(2)})[:40], 400},
		{"json batch NaN", batch, "application/json", []byte(`{"embeddings":[[NaN,` + jsonFloats + `]]}`), 400},
		{"json batch Inf", batch, "application/json", []byte(`{"embeddings":[[-1e999,` + jsonFloats + `]]}`), 400},
		{"json batch wrong dim", batch, "application/json", jsonOf(BatchRetrieveRequest{[][]float32{good, longer}}), 400},
		{"json batch empty element", batch, "application/json", jsonOf(BatchRetrieveRequest{[][]float32{good, {}}}), 400},
		{"json batch 257 elements", batch, "application/json", jsonOf(BatchRetrieveRequest{repeat(MaxBatchElements + 1)}), 400},
		{"json batch oversized", batch, "application/json", jsonOf(BatchRetrieveRequest{repeat(4 * MaxBatchElements)}), 413},

		{"unknown type single", single, "application/x-proximity-f64", encodeF32(good), 415},
		{"unknown type batch", batch, "text/plain", jsonOf(BatchRetrieveRequest{repeat(2)}), 415},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, msg := postRaw(t, ts.URL+tc.path, tc.contentType, tc.body, new(json.RawMessage))
			if code != tc.want || msg == "" {
				t.Errorf("status %d %q, want %d with a message", code, msg, tc.want)
			}
		})
	}

	// What a bare `curl -d` sends is still JSON to this server, and after
	// all of the above it still answers.
	var out RetrieveResponse
	if code, msg := postRaw(t, ts.URL+single, "application/x-www-form-urlencoded", jsonOf(RetrieveRequest{good}), &out); code != 200 {
		t.Fatalf("form-typed JSON: %d %s", code, msg)
	}
	if resp, err := NewClient(ts.URL).Retrieve(good); err != nil || !resp.Hit || !reflect.DeepEqual(resp.Docs, out.Docs) {
		t.Errorf("after the refused bodies: %+v, err %v; want a hit on %v", resp, err, out.Docs)
	}
}

// TestQueryBodyIsBounded: /v1/query refuses a text longer than its limit
// with 413 and serves one inside it.
func TestQueryBodyIsBounded(t *testing.T) {
	ts, _, _ := newFlakyServer(t)
	var out RetrieveResponse
	if code, msg := postRaw(t, ts.URL+"/v1/query", "application/json", []byte(`{"text":"aspirin dosage"}`), &out); code != 200 {
		t.Fatalf("short query: %d %s", code, msg)
	}
	long := fmt.Sprintf(`{"text":%q}`, strings.Repeat("aspirin ", 4096))
	if code, msg := postRaw(t, ts.URL+"/v1/query", "application/json", []byte(long), &out); code != 413 || msg == "" {
		t.Errorf("32 KB query: %d %q, want 413 with a message", code, msg)
	}
}

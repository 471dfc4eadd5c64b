package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"proximity/internal/telemetry"
	"proximity/internal/vec"
)

// replyFloats are the timings the reply tests draw from: zero of both
// signs, the ends of encoding/json's 'f' range and just past them, and
// ordinary values of both signs.
var replyFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, -1e20, 1e21, -1e21,
	999999999999999999999.9, 1, -1, 0.1, 12.345, -3.75, 1.5e-5, 123456.789, 4.9e-324,
	math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

// randomReply draws a RetrieveResponse without Texts: nil, empty or up to
// a dozen docs of either sign, and timings from replyFloats or random
// magnitudes from 1e-9 to 1e22.
func randomReply(i int) RetrieveResponse {
	r := vec.NewRand(uint64(i))
	var docs []int
	switch n := r.IntN(14); n {
	case 0:
	case 1:
		docs = []int{}
	default:
		docs = make([]int, n-1)
		for j := range docs {
			docs[j] = r.IntN(1<<20) - 1<<10
			if r.IntN(16) == 0 {
				docs[j] = math.MaxInt - r.IntN(3)
			}
		}
	}
	timing := func() float64 {
		if r.IntN(2) == 0 {
			return replyFloats[r.IntN(len(replyFloats))]
		}
		return math.Pow(10, r.Float64()*31-9) * float64(1-2*r.IntN(2))
	}
	return RetrieveResponse{Docs: docs, Hit: r.IntN(2) == 0, CacheMicros: timing(), DBMillis: timing()}
}

// TestRetrieveReplyMatchesEncodingJSON: appendRetrieveReply writes what
// json.NewEncoder(w).Encode does, byte for byte, for every reply it
// accepts, and it refuses exactly the replies with Texts or a timing
// outside 'f' range; writeRetrieveReply's whole response — status,
// headers and body — is writeJSON's for every reply, NaN and ±Inf
// included; and the client's strict parser reads back what
// json.Unmarshal reads.
func TestRetrieveReplyMatchesEncodingJSON(t *testing.T) {
	var replies []RetrieveResponse
	for i := range 2000 {
		replies = append(replies, randomReply(i))
	}
	for _, x := range replyFloats {
		replies = append(replies, RetrieveResponse{Docs: []int{3, 1}, CacheMicros: x, DBMillis: 0.5},
			RetrieveResponse{Docs: []int{7}, Hit: true, CacheMicros: 2, DBMillis: x})
	}
	replies = append(replies,
		RetrieveResponse{Docs: []int{1, 2}, Texts: []string{"a <b>", "c\u2028"}, Hit: true, CacheMicros: 3},
		RetrieveResponse{Docs: []int{4}, Texts: []string{}, DBMillis: 1.25})
	accepted := 0
	for i, resp := range replies {
		var want bytes.Buffer
		encErr := json.NewEncoder(&want).Encode(resp)
		got, ok := appendRetrieveReply(nil, &resp)
		if plain := len(resp.Texts) == 0 && plainFloat(resp.CacheMicros) && plainFloat(resp.DBMillis); ok != plain {
			t.Fatalf("reply %d %+v: appended %v, want %v", i, resp, ok, plain)
		}
		if ok {
			accepted++
			if encErr != nil || !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("reply %d:\n appended %q\nencoding/json %q (err %v)", i, got, want.Bytes(), encErr)
			}
			var strict, std RetrieveResponse
			if !parseRetrieveReply(got, &strict) {
				t.Fatalf("reply %d: the strict parser refused %q", i, got)
			}
			if err := json.Unmarshal(got, &std); err != nil || !sameReply(strict, std) {
				t.Fatalf("reply %d: strict %+v, json.Unmarshal %+v (err %v)", i, strict, std, err)
			}
		} else if len(got) != 0 {
			t.Fatalf("reply %d: refused, but appended %q", i, got)
		}

		viaAppend, viaJSON := httptest.NewRecorder(), httptest.NewRecorder()
		writeRetrieveReply(viaAppend, &resp)
		writeJSON(viaJSON, http.StatusOK, resp)
		if viaAppend.Code != viaJSON.Code || !reflect.DeepEqual(viaAppend.Header(), viaJSON.Header()) ||
			!bytes.Equal(viaAppend.Body.Bytes(), viaJSON.Body.Bytes()) {
			t.Fatalf("reply %d: writeRetrieveReply %d %v %q, writeJSON %d %v %q", i,
				viaAppend.Code, viaAppend.Header(), viaAppend.Body.Bytes(), viaJSON.Code, viaJSON.Header(), viaJSON.Body.Bytes())
		}
	}
	if accepted < len(replies)/4 || accepted == len(replies) {
		t.Fatalf("%d of %d replies appended: the draw misses one of the two paths", accepted, len(replies))
	}
}

// sameReply compares two decoded replies field by field, the timings by
// their bits, so -0 differs from 0.
func sameReply(a, b RetrieveResponse) bool {
	return reflect.DeepEqual(a.Docs, b.Docs) && reflect.DeepEqual(a.Texts, b.Texts) && a.Hit == b.Hit &&
		math.Float64bits(a.CacheMicros) == math.Float64bits(b.CacheMicros) &&
		math.Float64bits(a.DBMillis) == math.Float64bits(b.DBMillis)
}

// FuzzRetrieveReply holds the client's strict reply parser to
// json.Unmarshal: whenever it accepts a body, json.Unmarshal accepts it
// too and decodes the same reply; when it refuses one, it leaves its
// output untouched.
func FuzzRetrieveReply(f *testing.F) {
	for i := range 8 {
		resp := randomReply(i)
		if b, ok := appendRetrieveReply(nil, &resp); ok {
			f.Add(b)
		}
	}
	f.Add([]byte(`{"docs":[1,2],"hit":true,"cacheLookupMicros":1.5,"dbServiceMillis":0}`))
	f.Add([]byte(`{"docs":null,"hit":false,"cacheLookupMicros":-0,"dbServiceMillis":0.000001}` + "\n"))
	f.Add([]byte(`{"docs":[],"hit":false,"cacheLookupMicros":0,"dbServiceMillis":1}`))
	f.Add([]byte(`{"docs":[01],"hit":true,"cacheLookupMicros":1,"dbServiceMillis":1}`))
	f.Add([]byte(`{"docs":[-0,9223372036854775808],"hit":true,"cacheLookupMicros":1e3,"dbServiceMillis":1}`))
	f.Add([]byte(`{"docs":[1],"hit":true,"cacheLookupMicros":1.,"dbServiceMillis":1} `))
	f.Add([]byte(`{"docs":[1],"hit":true,"cacheLookupMicros":01.5,"dbServiceMillis":-00}`))
	f.Add([]byte(`{"docs":[1],"hit":true,"cacheLookupMicros":1,"dbServiceMillis":1}` + "\n}"))
	f.Add([]byte(`{"docs":[1],"hit":true,"cacheLookupMicros":1,"dbServiceMillis":1}` + "\n\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		marker := []int{-1}
		strict := RetrieveResponse{Docs: marker, Texts: []string{"kept"}}
		if !parseRetrieveReply(body, &strict) {
			if !reflect.DeepEqual(strict, RetrieveResponse{Docs: marker, Texts: []string{"kept"}}) {
				t.Fatalf("refused %q but changed its output to %+v", body, strict)
			}
			return
		}
		var std RetrieveResponse
		if err := json.Unmarshal(body, &std); err != nil {
			t.Fatalf("strict parser accepted %q, json.Unmarshal refuses it: %v", body, err)
		}
		std.Texts = []string{"kept"} // the body has no texts; neither decoder touches them
		if !sameReply(strict, std) {
			t.Fatalf("%q: strict %+v, json.Unmarshal %+v", body, strict, std)
		}
	})
}

// TestRequestHeadMatchesRequestWrite: the head the client appends, with
// its body, is what (*http.Request).Write sends for the same call, for
// every shape of call the client makes.
func TestRequestHeadMatchesRequestWrite(t *testing.T) {
	const host = "127.0.0.1:8080"
	calls := []request{
		{method: http.MethodPost, path: "/v1/retrieve", contentType: ContentTypeF32, body: encodeF32([]float32{1, 2, 3})},
		{method: http.MethodPost, path: "/v1/retrieve", contentType: ContentTypeF32, body: encodeF32([]float32{4}), traceID: 0xabc},
		{method: http.MethodPost, path: "/v1/retrieve", contentType: ContentTypeF32},
		{method: http.MethodPost, path: "/v1/query", contentType: "application/json", body: []byte(`{"text":"q"}`)},
		{method: http.MethodPost, path: "/v1/flush", contentType: "application/json", want: http.StatusNoContent},
		{method: http.MethodPost, path: "/v1/rebalance", once: true},
		{method: http.MethodGet, path: "/v1/stats"},
		{method: http.MethodGet, path: "/v1/traces", query: "n=5"},
	}
	for _, rq := range calls {
		req := &http.Request{
			Method: rq.method,
			URL:    &url.URL{Path: rq.path, RawQuery: rq.query},
			Host:   host,
			Header: make(http.Header),
		}
		if rq.contentType != "" {
			req.Header.Set("Content-Type", rq.contentType)
		}
		if rq.traceID != 0 {
			req.Header.Set(telemetry.TraceHeader, telemetry.FormatTraceID(rq.traceID))
		}
		if len(rq.body) > 0 {
			req.Body = io.NopCloser(bytes.NewReader(rq.body))
			req.ContentLength = int64(len(rq.body))
		}
		var want bytes.Buffer
		if err := req.Write(&want); err != nil {
			t.Fatal(err)
		}
		got := append(appendHead(nil, host, &rq), rq.body...)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s %s:\n appended %q\nRequest.Write %q", rq.method, rq.path, got, want.Bytes())
		}
		// And the server side reads it as that request.
		parsed, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(got)))
		if err != nil || parsed.Method != rq.method || parsed.URL.Path != rq.path || parsed.URL.RawQuery != rq.query ||
			parsed.ContentLength != int64(len(rq.body)) {
			t.Errorf("%s %s: read back as %+v, err %v", rq.method, rq.path, parsed, err)
		}
	}
}

// TestPortableByteOrder drives the conversions a big-endian host runs
// (nativeF32 cleared): they encode and decode the same bytes and floats
// as the native path, the body the client sends is a copy rather than
// the embedding's memory, and a client and server both on that path
// agree with each other and with a native client.
func TestPortableByteOrder(t *testing.T) {
	if !nativeF32 {
		t.Skip("this host already runs the portable path")
	}
	v := []float32{1, -2.5, 3e-9, 0, float32(math.Copysign(0, -1)), math.MaxFloat32, math.SmallestNonzeroFloat32}
	w := []float32{7, 8, 9, 10, 11, 12, 13}
	native, nativeOne := encodeF32(v, w), f32Body(v)
	nativeDecoded, err := DecodeF32(nil, io.NopCloser(bytes.NewReader(native)), len(v), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, nativeNaNErr := DecodeF32(nil, io.NopCloser(bytes.NewReader(encodeF32(w, []float32{1, 2, float32(math.NaN()), 4, 5, 6, 7}))), len(v), 2)

	nativeF32 = false
	defer func() { nativeF32 = true }()
	if got := encodeF32(v, w); !bytes.Equal(got, native) {
		t.Fatalf("portable encoding %x, native %x", got, native)
	}
	one := f32Body(v)
	if !bytes.Equal(one, nativeOne) {
		t.Fatalf("portable body %x, native %x", one, nativeOne)
	}
	if &one[0] == &f32Bytes(v)[0] {
		t.Fatal("the portable body aliases the embedding")
	}
	decoded, err := DecodeF32(nil, io.NopCloser(bytes.NewReader(native)), len(v), 2)
	if err != nil || !reflect.DeepEqual(f32Bytes(decoded), f32Bytes(nativeDecoded)) {
		t.Fatalf("portable decode %v (err %v), native %v", decoded, err, nativeDecoded)
	}
	_, nanErr := DecodeF32(nil, io.NopCloser(bytes.NewReader(encodeF32(w, []float32{1, 2, float32(math.NaN()), 4, 5, 6, 7}))), len(v), 2)
	if nanErr == nil || nativeNaNErr == nil || nanErr.Error() != nativeNaNErr.Error() {
		t.Fatalf("a NaN in element 1: portable err %v, native err %v", nanErr, nativeNaNErr)
	}

	// A whole round trip with both ends on the portable path.
	const dim = 16
	ts, _, docs := serveCache(t, dim, 12, cacheShapes(t, dim)["flat"], false)
	c := NewClient(ts.URL)
	defer c.Close()
	first, err := c.Retrieve(docs[3])
	if err != nil || first.Hit {
		t.Fatalf("first ask: %+v, err %v; want a miss", first, err)
	}
	again, err := c.Retrieve(docs[3])
	if err != nil || !again.Hit || !reflect.DeepEqual(again.Docs, first.Docs) {
		t.Fatalf("second ask: %+v, err %v; want a hit on %v", again, err, first.Docs)
	}
	batch, err := c.RetrieveBatch([][]float32{docs[3], docs[5]})
	if err != nil || !reflect.DeepEqual(batch.Results[0].Docs, first.Docs) {
		t.Fatalf("batch: %+v, err %v", batch, err)
	}
	nativeF32 = true
	viaNative, err := NewClient(ts.URL).Retrieve(docs[3])
	if err != nil || !viaNative.Hit || !reflect.DeepEqual(viaNative.Docs, first.Docs) {
		t.Fatalf("native client after portable ones: %+v, err %v", viaNative, err)
	}
}

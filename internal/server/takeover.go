package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"proximity/internal/telemetry"
	"proximity/internal/vec"
)

// chunkAbove is net/http's bufferBeforeChunkingSize: a longer body goes
// out chunked.
const chunkAbove = 2048

// handedOff marks a connection handed back to net/http, never taken over again.
type handedOff struct{}

var handedCtx = context.WithValue(context.Background(), handedOff{}, true)

// mount is the set of connections taken over from a server Listen made,
// which its stop closes; conns is nil once it has.
type mount struct {
	mu    sync.Mutex
	conns map[*takenConn]struct{}
}

func (m *mount) close() {
	m.mu.Lock()
	conns := m.conns
	m.conns = nil
	m.mu.Unlock()
	for c := range conns {
		_ = c.Conn.Close()
	}
}

// takeOver hands r's connection to serveConn, whose first answer is to
// r (first is its decoded body). It reports false, having touched
// nothing, when Server's rules do not allow a takeover.
func (s *Server) takeOver(w http.ResponseWriter, r *http.Request, first vec.Vector) bool {
	hj, ok := w.(http.Hijacker)
	srv, mounted := r.Context().Value(http.ServerContextKey).(*http.Server)
	if !ok || !mounted || r.ProtoMajor != 1 || r.ProtoMinor != 1 || r.Close || r.ContentLength <= 0 ||
		r.Header.Get("Expect") != "" || r.Context().Value(handedOff{}) != nil {
		return false
	}
	nc, rw, err := hj.Hijack()
	if err != nil {
		return false
	}
	// rw.Reader holds any request pipelined behind r and reads the
	// connection after it, as net/http's own reader does.
	c := &takenConn{Conn: nc, srv: srv, br: rw.Reader}
	if m, ok := s.mounts.Load(srv); ok { // Listen's: its stop must find c
		c.m = m.(*mount)
		c.m.mu.Lock()
		stopped := c.m.conns == nil
		if !stopped {
			c.m.conns[c] = struct{}{}
		}
		c.m.mu.Unlock()
		if stopped {
			_ = nc.Close() // serveConn ends at its first write
		}
	}
	c.body = io.NopCloser(&c.lim)
	s.serveConn(r.Context(), c, first, r.Header.Get(telemetry.TraceHeader))
	return true
}

// takenConn is a taken-over connection. Its Read drains the loop's
// buffer first: handed back, net/http reads every byte the loop did not.
type takenConn struct {
	net.Conn
	srv       *http.Server // the mounting server, whose time limits apply
	m         *mount
	br        *bufio.Reader
	lim       io.LimitedReader // the current request's body
	body      io.ReadCloser    // lim, as DecodeF32 takes it
	out, wire []byte           // the reply's body; the whole reply
}

func (c *takenConn) Read(p []byte) (int, error) { return c.br.Read(p) }

func (c *takenConn) Close() error {
	if c.m != nil {
		c.m.mu.Lock()
		delete(c.m.conns, c)
		c.m.mu.Unlock()
	}
	return c.Conn.Close()
}

// serveConn answers emb, then each request in parseRequestHead's layout,
// setting the mounting server's time limits where net/http does. It
// closes c when the peer closes, a limit runs out, a write fails or a
// body is cut short, and hands c back to net/http, the head unconsumed,
// when a head has any other layout or its body is over the limit.
//
//proximity:hotpath
func (s *Server) serveConn(ctx context.Context, c *takenConn, emb vec.Vector, trace string) {
	lim := c.srv
	idle, hdrLimit := cmp.Or(lim.IdleTimeout, lim.ReadTimeout), cmp.Or(lim.ReadHeaderTimeout, lim.ReadTimeout)
	var head []byte
	var err error
	for {
		if lim.WriteTimeout > 0 { // net/http sets it once a request is read
			_ = c.SetWriteDeadline(time.Now().Add(lim.WriteTimeout))
		}
		var resp RetrieveResponse
		spans, code := "", 0
		if err == nil {
			resp, spans, code, err = s.answer(ctx, trace, "/v1/retrieve", emb)
		} else {
			code = bodyStatus(err)
		}
		if !c.reply(code, spans, &resp, err) || c.lim.N > 0 {
			break
		}
		_ = c.SetReadDeadline(deadline(time.Now(), idle))
		if head, err = c.br.Peek(4); err != nil {
			break
		}
		// After a POST, net/http skips the CR and LF bytes an old client
		// may send behind the body.
		_, _ = c.br.Discard(len(head) - len(bytes.TrimLeft(head, "\r\n")))
		t0 := time.Now()
		hdr, whole := deadline(t0, hdrLimit), deadline(t0, lim.ReadTimeout)
		_ = c.SetReadDeadline(hdr)
		if head, err = peekHead(c.br); err != nil {
			break
		}
		length, traceID, ok := parseRequestHead(head)
		if !ok || length > f32BodyLimit(s.dim, 1) {
			s.handOff(c)
			return
		}
		_, _ = c.br.Discard(len(head))
		if !hdr.Equal(whole) {
			_ = c.SetReadDeadline(whole)
		}
		c.lim = io.LimitedReader{R: c.br, N: int64(length)}
		emb, err = DecodeF32(nil, c.body, s.dim, 1)
		trace = string(traceID)
	}
	_ = c.Close()
}

// deadline is t+d, or none for d ≤ 0.
func deadline(t time.Time, d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return t.Add(d)
}

// reply writes resp's reply, or err's with code (see appendReply).
func (c *takenConn) reply(code int, spans string, resp *RetrieveResponse, err error) bool {
	if err != nil {
		c.out = appendJSON(c.out[:0], errorResponse{Error: err.Error()})
	} else if b, ok := appendRetrieveReply(c.out[:0], resp); ok {
		c.out = b
	} else {
		c.out = appendJSON(c.out[:0], *resp)
	}
	c.wire = appendReply(c.wire[:0], code, spans, c.out, time.Now())
	_, err = c.Write(c.wire)
	return err == nil
}

// appendReply appends what net/http writes at now when a handler sets
// Content-Type (and a non-empty span header) and writes body in one call.
func appendReply(b []byte, code int, spans string, body []byte, now time.Time) []byte {
	b = strconv.AppendInt(append(b, "HTTP/1.1 "...), int64(code), 10)
	b = append(append(append(b, ' '), http.StatusText(code)...), "\r\nContent-Type: application/json\r\n"...)
	if spans != "" {
		b = append(append(append(b, telemetry.TraceSpanHeader+": "...), spans...), "\r\n"...)
	}
	b = now.UTC().AppendFormat(append(b, "Date: "...), http.TimeFormat)
	if len(body) > chunkAbove {
		b = strconv.AppendInt(append(b, "\r\nTransfer-Encoding: chunked\r\n\r\n"...), int64(len(body)), 16)
		return append(append(append(b, "\r\n"...), body...), "\r\n0\r\n\r\n"...)
	}
	b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(len(body)), 10)
	return append(append(b, "\r\n\r\n"...), body...)
}

// appendJSON appends what json.NewEncoder(w).Encode(v) writes.
func appendJSON(b []byte, v any) []byte {
	enc, err := json.Marshal(v)
	if err != nil {
		return b
	}
	return append(append(b, enc...), '\n')
}

// handOff serves c from a private http.Server with the mounting server's
// limits, through a listener that accepts c alone.
func (s *Server) handOff(c *takenConn) {
	hs := &http.Server{Handler: s.mux, ReadHeaderTimeout: c.srv.ReadHeaderTimeout, ReadTimeout: c.srv.ReadTimeout,
		WriteTimeout: c.srv.WriteTimeout, IdleTimeout: c.srv.IdleTimeout, MaxHeaderBytes: c.srv.MaxHeaderBytes,
		BaseContext: func(net.Listener) context.Context { return handedCtx }}
	go func() { _ = hs.Serve(&oneConn{c: c}) }() // returns once c has a goroutine of its own
}

// oneConn is a listener that accepts c, then reports itself closed.
type oneConn struct{ c net.Conn }

func (l *oneConn) Accept() (net.Conn, error) {
	c := l.c
	if c == nil {
		return nil, net.ErrClosed
	}
	l.c = nil
	return c, nil
}

func (l *oneConn) Close() error   { return nil }
func (l *oneConn) Addr() net.Addr { return &net.TCPAddr{} }

// peekHead waits for the empty line (CRLF or LF) that ends the head at
// br's front and returns the head, unconsumed; nil when br cannot hold it.
func peekHead(br *bufio.Reader) ([]byte, error) {
	for {
		buf, _ := br.Peek(br.Buffered())
		if lf, crlf := bytes.Index(buf, []byte("\n\n")), bytes.Index(buf, []byte("\n\r\n")); lf >= 0 && (crlf < 0 || lf < crlf) {
			return buf[:lf+2], nil
		} else if crlf >= 0 {
			return buf[:crlf+3], nil
		}
		if len(buf) == br.Size() {
			return nil, nil
		}
		if _, err := br.Peek(len(buf) + 1); err != nil {
			return nil, err
		}
	}
}

// parseRequestHead reads head as appendHead writes a ContentTypeF32
// /v1/retrieve (a host in hostBytes, a trace ID in 16 lowercase hex
// digits, or none) and returns its body's length and trace ID.
func parseRequestHead(head []byte) (length int, trace []byte, ok bool) {
	p := replyParser{b: head}
	if !p.lit("POST /v1/retrieve HTTP/1.1\r\nHost: ") || p.run(hostBytes) == 0 ||
		!p.lit("\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: ") {
		return 0, nil, false
	}
	if length, ok = p.int(); !ok || length < 0 || !p.lit("\r\nContent-Type: "+ContentTypeF32+"\r\n") {
		return 0, nil, false
	}
	if p.lit(telemetry.TraceHeader + ": ") {
		if trace = head[p.i:]; p.run("0123456789abcdef") != 16 || !p.lit("\r\n") {
			return 0, nil, false
		}
		trace = trace[:16]
	}
	return length, trace, p.lit("\r\n") && p.i == len(head)
}

// parseReplyHead reads head as appendReply writes it with a
// Content-Length (a named status with a body, a printable span header
// trimmed of spaces, or none, a 29-byte printable Date) and returns its
// status, body length and span header.
func parseReplyHead(head []byte) (status, length int, spans []byte, ok bool) {
	p := replyParser{b: head}
	if !p.lit("HTTP/1.1 ") {
		return 0, 0, nil, false
	}
	if status, ok = p.int(); !ok || p.i != 12 || status < 200 || status == 204 || status == 304 ||
		http.StatusText(status) == "" || !p.lit(" ") || !p.lit(http.StatusText(status)) ||
		!p.lit("\r\nContent-Type: application/json\r\n") {
		return 0, 0, nil, false
	}
	if p.lit(telemetry.TraceSpanHeader + ": ") {
		start := p.i
		if p.run(printable) == 0 || head[start] == ' ' || head[p.i-1] == ' ' || !p.lit("\r\n") {
			return 0, 0, nil, false
		}
		spans = head[start : p.i-2]
	}
	if !p.lit("Date: ") || p.run(printable) != len(http.TimeFormat) || !p.lit("\r\nContent-Length: ") {
		return 0, 0, nil, false
	}
	length, ok = p.int()
	return status, length, spans, ok && 0 <= length && length <= drainMax && p.lit("\r\n\r\n") && p.i == len(head)
}

const (
	hostBytes = "-.:[]_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	printable = " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~"
)

// run consumes the bytes in set and returns how many.
func (p *replyParser) run(set string) int {
	start := p.i
	for p.i < len(p.b) && strings.IndexByte(set, p.b[p.i]) >= 0 {
		p.i++
	}
	return p.i - start
}

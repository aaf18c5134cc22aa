package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// TestDecodeRefusal pins the refusal decoder: the status alone picks
// the error type, a body that does not decode only leaves the details
// empty, and a 429 keeps its Retry-After hint. The 429 rows are the
// bodies a member, gateway or intermediary proxy may mangle a refusal
// into; a backlog survives only when the fill and the bound are sane.
func TestDecodeRefusal(t *testing.T) {
	full := []ClassStats{{Profiles: []string{"die40"}, Queued: 12}, {Profiles: []string{"die40", "die48"}, Queued: 4}}
	queueFull := []struct {
		name  string
		body  string
		retry string
		want  QueueFullError
	}{
		{"full", `{"error":"queue full","queued":16,"queue_depth":16,"backlog":[{"profiles":["die40"],"queued":12},{"profiles":["die40","die48"],"queued":4}]}`,
			"1", QueueFullError{Queued: 16, Depth: 16, Classes: full, RetryAfter: time.Second}},
		{"no backlog", `{"error":"queue full","queued":3,"queue_depth":8}`,
			"7", QueueFullError{Queued: 3, Depth: 8, RetryAfter: 7 * time.Second}},
		{"empty object", `{}`, "0", QueueFullError{}},
		{"empty body", ``, "", QueueFullError{RetryAfter: time.Second}},
		{"truncated", `{"error":"queue full","queued":16,"queue_de`, "soon", QueueFullError{RetryAfter: time.Second}},
		{"wrong types", `{"queued":"sixteen","backlog":"nope"}`, "-3", QueueFullError{RetryAfter: time.Second}},
		{"negative queued", `{"queued":-2,"queue_depth":8}`, "0", QueueFullError{}},
		{"no bound", `{"queued":2}`, "0", QueueFullError{}},
		{"not json", `<html>502 Bad Gateway</html>`, "0", QueueFullError{}},
		{"backlog missing profiles", `{"queued":5,"queue_depth":8,"backlog":[{"queued":5}]}`,
			"0", QueueFullError{Queued: 5, Depth: 8, Classes: []ClassStats{{Queued: 5}}}},
	}
	for _, tc := range queueFull {
		t.Run("429/"+tc.name, func(t *testing.T) {
			h := http.Header{}
			if tc.retry != "" {
				h.Set("Retry-After", tc.retry)
			}
			err := decodeRefusal(http.StatusTooManyRequests, h, []byte(tc.body))
			var qf *QueueFullError
			if !errors.As(err, &qf) || !errors.Is(err, ErrQueueFull) {
				t.Fatalf("err = %#v, want *QueueFullError", err)
			}
			if !reflect.DeepEqual(*qf, tc.want) {
				t.Errorf("decoded %+v, want %+v", *qf, tc.want)
			}
		})
	}

	t.Run("422", func(t *testing.T) {
		err := decodeRefusal(http.StatusUnprocessableEntity, nil,
			[]byte(`{"error":"x","requirements":{"min_cols":48},"profiles":{"die40":"too small"}}`))
		var ie *IncompatibleError
		if !errors.As(err, &ie) || ie.Requirements.MinCols != 48 || ie.Reasons["die40"] != "too small" {
			t.Errorf("err = %#v", err)
		}
		if err := decodeRefusal(http.StatusUnprocessableEntity, nil, []byte(`nope`)); !errors.As(err, &ie) {
			t.Errorf("malformed 422: %#v, want *IncompatibleError", err)
		}
	})
	sentinels := []struct {
		code int
		body string
		is   error
		msg  string
	}{
		{http.StatusNotFound, `{"error":"unknown job"}`, ErrUnknownJob, "unknown job (HTTP 404)"},
		{http.StatusNotFound, "404 page not found\n", ErrUnknownJob, "404 page not found (HTTP 404)"},
		{http.StatusServiceUnavailable, `{"error":"service: draining"}`, ErrDraining, "service: draining (HTTP 503)"},
		{http.StatusInternalServerError, `{"error":"disk full"}`, ErrPersist, "disk full (HTTP 500)"},
		{http.StatusBadGateway, `<html>bad gateway</html>`, ErrUnreachable, "<html>bad gateway</html> (HTTP 502)"},
		{http.StatusGatewayTimeout, ``, ErrUnreachable, "Gateway Timeout (HTTP 504)"},
		{http.StatusBadRequest, `{"error":"invalid status filter"}`, nil, "invalid status filter (HTTP 400)"},
	}
	for _, tc := range sentinels {
		err := decodeRefusal(tc.code, nil, []byte(tc.body))
		var se *StatusError
		if !errors.As(err, &se) || se.Code != tc.code || err.Error() != tc.msg {
			t.Errorf("%d %q: err = %v, want %q", tc.code, tc.body, err, tc.msg)
		}
		for _, s := range []error{ErrUnknownJob, ErrDraining, ErrPersist, ErrUnreachable} {
			if errors.Is(err, s) != (s == tc.is) {
				t.Errorf("%d: errors.Is(%v) = %v", tc.code, s, !(s == tc.is))
			}
		}
	}
}

// TestClientEscapes pins the request builder against a live handler:
// a job ID is one escaped path segment, so "../stats" asks for an
// unknown job (404) instead of reaching /v1/stats, and a list filter is
// one escaped query value, so a status carrying "&order=desc" is an
// invalid filter (400) instead of a second parameter.
func TestClientEscapes(t *testing.T) {
	svc := newFakeService(t, 1, 4, func(*shard, *Job) {})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	if _, err := c.Submit(testProgram(4), 1, ""); err != nil {
		t.Fatal(err)
	}

	_, err := c.Job("../stats")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound || !errors.Is(err, ErrUnknownJob) {
		t.Errorf(`Job("../stats") = %v, want a 404 unknown job`, err)
	}
	for _, call := range []func() error{
		func() error { _, err := c.Wait("../stats", 0); return err },
		func() error { _, err := c.Trace("../../v1/stats"); return err },
		func() error { _, err := c.Events(context.Background(), "a-000001/../../stats", 0); return err },
	} {
		if err := call(); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("escaped traversal: %v, want a 404 unknown job", err)
		}
	}
	_, err = c.List(ListFilter{Status: "done&order=desc"})
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Errorf("List(status=done&order=desc) = %v, want a 400", err)
	}
	page, err := c.List(ListFilter{Status: StatusDone, Newest: true, Limit: 1})
	if err != nil || len(page.Jobs) != 1 || page.Jobs[0].ID != "a-000001" {
		t.Errorf("List(done, newest, 1) = %+v, %v", page, err)
	}
}

// silentListener accepts connections and never answers them.
func silentListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
			close(done)
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()
	t.Cleanup(func() { ln.Close(); <-done })
	return "http://" + ln.Addr().String()
}

// TestClientDeadlines pins the client's deadlines against a server
// that accepts and never answers: a plain call gives up after the
// client's rpc deadline, a long-poll after its window plus that
// deadline, and an event stream only when its context ends.
func TestClientDeadlines(t *testing.T) {
	c := NewClient(silentListener(t), nil)
	c.rpc = 200 * time.Millisecond

	for name, call := range map[string]func() error{
		"stats":  func() error { var st Stats; return c.Stats(&st) },
		"health": func() error { var h Health; return c.Health(&h) },
		"job":    func() error { _, err := c.Job("a-000001"); return err },
		"submit": func() error { _, err := c.Submit(testProgram(4), 1, ""); return err },
	} {
		start := time.Now()
		err := call()
		if took := time.Since(start); !errors.Is(err, ErrUnreachable) || took > 5*time.Second {
			t.Errorf("%s: %v after %v, want ErrUnreachable after ~%v", name, err, took, c.rpc)
		}
	}

	start := time.Now()
	if _, err := c.Wait("a-000001", 300*time.Millisecond); !errors.Is(err, ErrUnreachable) {
		t.Errorf("wait: %v, want ErrUnreachable", err)
	}
	if took := time.Since(start); took < 500*time.Millisecond || took > 5*time.Second {
		t.Errorf("wait gave up after %v, want its 300ms window plus %v", took, c.rpc)
	}

	ctx, cancel := context.WithCancel(context.Background())
	opened := make(chan error, 1)
	go func() {
		_, err := c.Events(ctx, "a-000001", 0)
		opened <- err
	}()
	select {
	case err := <-opened:
		t.Fatalf("events gave up on its own (%v); a stream has no deadline", err)
	case <-time.After(4 * c.rpc):
	}
	cancel()
	if err := <-opened; !errors.Is(err, ErrUnreachable) {
		t.Errorf("cancelled events: %v, want ErrUnreachable", err)
	}
}

// TestSSEReaderEnd pins how a stream ends: Err is nil after a clean
// end of stream and the read error after a dropped connection, and
// Data is each event's payload exactly as framed.
func TestSSEReaderEnd(t *testing.T) {
	frames := "id: 1\nevent: job.queued\ndata: {\"seq\":1,\"type\":\"job.queued\",\"t\":0}\n\n"
	r := NewSSEReader(strings.NewReader(frames))
	if _, ok := r.Next(); !ok || string(r.Data()) != `{"seq":1,"type":"job.queued","t":0}` {
		t.Fatalf("data = %q", r.Data())
	}
	if _, ok := r.Next(); ok || r.Err() != nil {
		t.Errorf("clean end: err %v, want nil", r.Err())
	}
	r = NewSSEReader(io.MultiReader(strings.NewReader(frames), iotest.ErrReader(io.ErrUnexpectedEOF)))
	r.Next()
	if _, ok := r.Next(); ok || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Errorf("dropped connection: err %v, want unexpected EOF", r.Err())
	}
}

// FuzzSubmitRequest posts arbitrary bytes to POST /v1/assays on a
// worker whose runner parks every job (admission runs for real,
// execution never): the handler never panics and only answers 202,
// 400, 413, 422 or 429, and the client's refusal decoder reads every
// refusal back as its typed error — and never panics on arbitrary
// bytes under any status.
func FuzzSubmitRequest(f *testing.F) {
	valid := `{"seed":7,"program":{"name":"p","ops":[{"op":"load","kind":"viable-cell","count":4},{"op":"settle"},{"op":"capture"},{"op":"scan","averaging":8}]}}`
	f.Add([]byte(valid), 429)
	f.Add([]byte(`{"seed":1,"program":{"name":"big","requirements":{"min_cols":4096},"ops":[{"op":"settle"}]}}`), 422)
	f.Add([]byte(`{`), 0)
	f.Add([]byte(`{"seed":-1,"program":[]}`), 503)
	f.Add([]byte(`{"seed":1,"program":{"ops":[{"op":"load","kind":"nope"}]}}`), 404)
	f.Add([]byte(`{"error":"queue full","queued":16,"queue_depth":16,"backlog":[{"queued":2}]}`), 429)

	release := make(chan struct{})
	svc := newFakeService(f, 1, 1, func(*shard, *Job) { <-release })
	f.Cleanup(svc.Close)
	f.Cleanup(func() { close(release) })
	h := svc.Handler()

	f.Fuzz(func(t *testing.T, body []byte, status int) {
		_ = decodeRefusal(status, http.Header{"Retry-After": {string(body)}}, body)

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/assays", bytes.NewReader(body)))
		err := decodeRefusal(rec.Code, rec.Header(), rec.Body.Bytes())
		var ie *IncompatibleError
		var qf *QueueFullError
		var se *StatusError
		switch rec.Code {
		case http.StatusAccepted:
		case http.StatusUnprocessableEntity:
			if !errors.As(err, &ie) {
				t.Fatalf("422 decoded as %#v", err)
			}
		case http.StatusTooManyRequests:
			// The server's own refusal always carries its backlog.
			if !errors.As(err, &qf) || qf.Depth != 1 || qf.RetryAfter != time.Second {
				t.Fatalf("429 %q decoded as %#v", rec.Body, err)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if !errors.As(err, &se) || se.Code != rec.Code {
				t.Fatalf("%d decoded as %#v", rec.Code, err)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}

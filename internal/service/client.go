package service

// The client side of the HTTP surface. Client is the remote counterpart
// of Frontend: one typed caller of the /v1 API for either role. A
// federation gateway reaches its members through it and assayctl
// reaches a worker or a gateway through it, so both decode the same
// wire types and the same refusals.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"biochip/internal/assay"
	"biochip/internal/obs"
	"biochip/internal/stream"
)

// ErrUnreachable wraps a call that got no usable answer: a transport
// failure, a blown deadline, a body that did not decode, or a 502/504
// from an intermediary. Callers tell "server down" from "server
// refused" by it.
var ErrUnreachable = errors.New("service: unreachable")

// ErrUnknownJob matches a 404: a job the server does not know — after
// a non-durable worker restart, the canonical "lost the job" signal —
// or, for a trace, a server running without observability.
var ErrUnknownJob = errors.New("service: unknown job")

// rpcTimeout bounds a plain request/response call. A long-poll gets its
// window plus this headroom; an event stream gets no deadline.
const rpcTimeout = 10 * time.Second

// StatusError is a refusal with no typed error of its own: the status
// code and the server's message. It matches ErrUnknownJob (404),
// ErrPersist (500), ErrDraining (503) and ErrUnreachable (502, 504)
// under errors.Is.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string { return fmt.Sprintf("%s (HTTP %d)", e.Msg, e.Code) }

// Is maps the status code onto the package's sentinel errors.
func (e *StatusError) Is(target error) bool {
	switch e.Code {
	case http.StatusNotFound:
		return target == ErrUnknownJob
	case http.StatusInternalServerError:
		return target == ErrPersist
	case http.StatusServiceUnavailable:
		return target == ErrDraining
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return target == ErrUnreachable
	}
	return false
}

// Client calls the /v1 API of one daemon, worker or gateway. Retry
// policy stays with the caller.
type Client struct {
	base string
	hc   *http.Client
	rpc  time.Duration // rpcTimeout; tests shorten it
}

// NewClient returns a client for the daemon at base ("http://host:port",
// no trailing slash) that sends its requests through hc (nil:
// http.DefaultClient).
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc, rpc: rpcTimeout}
}

// jobPath is the path of a job resource; the ID is one escaped
// segment, so no ID can address another endpoint.
func jobPath(id, suffix string) string { return "/v1/assays/" + url.PathEscape(id) + suffix }

// do sends one request under ctx and returns the response when its
// status is one of ok; any other status is decoded into its refusal
// error. The caller closes the body.
func (c *Client) do(ctx context.Context, method, path string, h http.Header, body io.Reader, ok ...int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	maps.Copy(req.Header, h)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	for _, code := range ok {
		if resp.StatusCode == code {
			return resp, nil
		}
	}
	defer resp.Body.Close()
	// A refusal is a small ErrorBody; the submission cap bounds a
	// hostile one.
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxSubmitBytes))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	return nil, decodeRefusal(resp.StatusCode, resp.Header, raw)
}

// get fetches path?q within timeout and decodes the body into v when
// the status is one of ok (200 when none is given).
func (c *Client) get(path string, q url.Values, timeout time.Duration, v any, ok ...int) error {
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	if len(ok) == 0 {
		ok = []int{http.StatusOK}
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, err := c.do(ctx, http.MethodGet, path, nil, nil, ok...)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("%w: decoding %s: %v", ErrUnreachable, path, err)
	}
	return nil
}

// decodeRefusal rebuilds the error a server answered with from the
// status code, the Retry-After header and the ErrorBody envelope. The
// status alone decides the error type; a body that does not decode
// only leaves the details empty. 422 is *IncompatibleError, 429
// *QueueFullError, anything else *StatusError.
func decodeRefusal(code int, h http.Header, body []byte) error {
	var eb ErrorBody
	decoded := json.Unmarshal(body, &eb) == nil
	switch code {
	case http.StatusUnprocessableEntity:
		ie := &IncompatibleError{}
		if decoded {
			ie.Reasons = eb.Profiles
			if eb.Requirements != nil {
				ie.Requirements = *eb.Requirements
			}
		}
		return ie
	case http.StatusTooManyRequests:
		qf := &QueueFullError{RetryAfter: retryAfterSeconds * time.Second}
		if secs, err := strconv.Atoi(h.Get("Retry-After")); err == nil && secs >= 0 {
			qf.RetryAfter = time.Duration(secs) * time.Second
		}
		// A fill without a sane bound is no backlog at all.
		if decoded && eb.Queued != nil && *eb.Queued >= 0 && eb.QueueDepth > 0 {
			qf.Queued, qf.Depth, qf.Classes = *eb.Queued, eb.QueueDepth, eb.Backlog
		}
		return qf
	}
	msg := eb.Error
	if !decoded || msg == "" {
		msg = strings.TrimSpace(string(body))
	}
	if msg == "" {
		msg = http.StatusText(code)
	}
	return &StatusError{Code: code, Msg: msg}
}

// Submit posts one submission, carrying traceParent in the
// X-Assay-Trace header when set; refusals come back as decodeRefusal
// builds them.
func (c *Client) Submit(pr assay.Program, seed uint64, traceParent string) (SubmitResult, error) {
	body, err := json.Marshal(SubmitRequest{Seed: seed, Program: pr})
	if err != nil {
		return SubmitResult{}, fmt.Errorf("service: encoding submission: %w", err)
	}
	h := http.Header{"Content-Type": {"application/json"}}
	if traceParent != "" {
		h.Set("X-Assay-Trace", traceParent)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.rpc)
	defer cancel()
	resp, err := c.do(ctx, http.MethodPost, "/v1/assays", h, bytes.NewReader(body), http.StatusAccepted)
	var ie *IncompatibleError
	if errors.As(err, &ie) {
		ie.Program = pr.Name
	}
	if err != nil {
		return SubmitResult{}, err
	}
	defer resp.Body.Close()
	var res SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return SubmitResult{}, fmt.Errorf("%w: decoding accept: %v", ErrUnreachable, err)
	}
	return res, nil
}

// Job fetches a job snapshot.
func (c *Client) Job(id string) (Job, error) {
	var j Job
	err := c.get(jobPath(id, ""), nil, c.rpc, &j)
	return j, err
}

// Wait long-polls a job until it is terminal or window elapses and
// returns the snapshot either way (Frontend.WaitTimeout over the wire).
func (c *Client) Wait(id string, window time.Duration) (Job, error) {
	q := url.Values{"wait": {"1"}, "timeout": {strconv.FormatFloat(max(window.Seconds(), 0), 'f', -1, 64)}}
	var j Job
	err := c.get(jobPath(id, ""), q, window+c.rpc, &j)
	return j, err
}

// List fetches one page of the job listing.
func (c *Client) List(f ListFilter) (ListPage, error) {
	q := url.Values{}
	if f.Status != "" {
		q.Set("status", string(f.Status))
	}
	if f.Limit > 0 {
		q.Set("limit", strconv.Itoa(f.Limit))
	}
	if f.After != "" {
		q.Set("after", f.After)
	}
	if f.Newest {
		q.Set("order", "desc")
	}
	var page ListPage
	err := c.get("/v1/assays", q, c.rpc, &page)
	return page, err
}

// Stats decodes the /v1/stats body into v: a *Stats from a worker, the
// federated document (federation.Stats) from a gateway.
func (c *Client) Stats(v any) error { return c.get("/v1/stats", nil, c.rpc, v) }

// Health decodes the /v1/healthz body into v — a *Health from a
// worker, federation.Health from a gateway — on 200 and on 503 alike:
// a draining or degraded daemon still reports itself.
func (c *Client) Health(v any) error {
	return c.get("/v1/healthz", nil, c.rpc, v, http.StatusOK, http.StatusServiceUnavailable)
}

// Trace fetches a job's span tree.
func (c *Client) Trace(id string) (obs.TraceDoc, error) {
	var doc obs.TraceDoc
	err := c.get(jobPath(id, "/trace"), nil, c.rpc, &doc)
	return doc, err
}

// Metrics scrapes the /v1/metrics exposition. A daemon running without
// observability (404) yields no families and no error: it is up, it
// just has nothing to report.
func (c *Client) Metrics() ([]obs.MetricFamily, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.rpc)
	defer cancel()
	resp, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, nil, http.StatusOK)
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%w: parsing exposition: %v", ErrUnreachable, err)
	}
	return fams, nil
}

// Events opens a job's event stream, resuming after the given sequence
// number (the Last-Event-ID header). The stream has no deadline of its
// own; ctx ends it. The caller closes the reader.
func (c *Client) Events(ctx context.Context, id string, after uint64) (*SSEReader, error) {
	h := http.Header{"Accept": {"text/event-stream"}}
	if after > 0 {
		h.Set("Last-Event-ID", strconv.FormatUint(after, 10))
	}
	resp, err := c.do(ctx, http.MethodGet, jobPath(id, "/events"), h, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return NewSSEReader(resp.Body), nil
}

// SSEReader parses the event stream writeSSE frames. Only data: lines
// matter — the payload is self-describing (the stream.Event JSON
// carries its own type and sequence number).
type SSEReader struct {
	src  io.Reader
	r    *bufio.Reader
	data []byte
	err  error
}

// NewSSEReader reads events from an SSE byte stream.
func NewSSEReader(r io.Reader) *SSEReader {
	return &SSEReader{src: r, r: bufio.NewReader(r)}
}

// Next returns the next decoded event, or false at end of stream (see
// Err). Undecodable frames are skipped — forward compatibility over
// failure.
func (s *SSEReader) Next() (stream.Event, bool) {
	for {
		line, err := s.r.ReadString('\n')
		if err != nil {
			if err != io.EOF {
				s.err = err
			}
			return stream.Event{}, false
		}
		payload, ok := strings.CutPrefix(strings.TrimRight(line, "\r\n"), "data:")
		if !ok {
			continue
		}
		data := []byte(strings.TrimSpace(payload))
		var ev stream.Event
		if json.Unmarshal(data, &ev) != nil {
			continue
		}
		s.data = data
		return ev, true
	}
}

// Data is the payload of the event Next last returned, exactly as the
// server framed it.
func (s *SSEReader) Data() []byte { return s.data }

// Err reports why the stream ended: nil after a clean end of stream,
// the read error after a dropped connection.
func (s *SSEReader) Err() error { return s.err }

// Close closes the underlying stream if it is an io.Closer, such as the
// connection of a stream Events opened.
func (s *SSEReader) Close() error {
	if c, ok := s.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

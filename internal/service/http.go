package service

// The HTTP surface. One handler set serves both daemon roles — a worker
// (*Service) and a federation gateway (federation.Gateway) — written
// against the Frontend interface, with one error→status table, so the
// two roles cannot drift apart on the wire.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"biochip/internal/assay"
	"biochip/internal/obs"
	"biochip/internal/stream"
)

// Frontend is everything the HTTP surface needs from whatever answers
// the API: the local shard pool (*Service) or a federation gateway.
type Frontend interface {
	// Submit admits one job. traceParent is the X-Assay-Trace value of
	// a forwarding gateway ("" for a direct submission). Errors map to
	// HTTP through the shared error table: *IncompatibleError,
	// *QueueFullError, ErrDraining, ErrClosed, ErrUnavailable,
	// ErrPersist, anything else a malformed program.
	Submit(pr assay.Program, seed uint64, traceParent string) (SubmitResult, error)
	// Get snapshots a job by ID.
	Get(id string) (Job, bool)
	// WaitTimeout blocks until the job is terminal or d elapses, and
	// returns the snapshot at that moment; d <= 0 returns at once.
	WaitTimeout(id string, d time.Duration) (Job, bool, error)
	// List pages through job snapshots.
	List(f ListFilter) ListPage
	// SubscribeEvents attaches to a job's event stream after a
	// sequence number.
	SubscribeEvents(id string, after uint64) (*stream.Sub, bool)
	// Trace returns a job's span tree.
	Trace(id string) (obs.TraceDoc, bool)
	// Draining and Drained report the shutdown drain, which ends open
	// event streams with a shutdown event.
	Draining() bool
	Drained() <-chan struct{}
	// StatsBody is the GET /v1/stats body.
	StatsBody() any
	// HealthBody is the GET /v1/healthz status code and body.
	HealthBody() (int, any)
	// MetricFamilies gathers the GET /v1/metrics exposition; false when
	// observability is disabled.
	MetricFamilies() ([]obs.MetricFamily, bool)
}

var _ Frontend = (*Service)(nil)

// retryAfterSeconds is the backoff hint sent with every 429 and
// draining 503: the queue drains at job-execution speed, so a short
// fixed hint beats the clients' guess without tracking per-job
// runtimes.
const retryAfterSeconds = 1

// Long-poll bounds for GET /v1/assays/{id}?wait=1: the server holds the
// request until the job finishes or the timeout elapses, whichever is
// first. Clients may lower/raise the default with ?timeout=SECONDS up
// to the cap.
const (
	DefaultLongPoll = 25 * time.Second
	maxLongPoll     = 60 * time.Second
)

// maxSubmitBytes bounds a POST /v1/assays body. It is far above any
// real program (the examples in docs/examples are a few kB), so only a
// hostile or broken client meets it, and it gets 413 before the
// decoder buffers more.
const maxSubmitBytes = 1 << 20

// ErrUnavailable reports a front that reached no executor at all — a
// gateway whose every member is down. HTTP maps it to 503 without a
// Retry-After hint: unlike a drain, nothing says when it ends.
var ErrUnavailable = errors.New("service: no executor reachable")

// SubmitRequest is the POST /v1/assays body: a seed plus a program in
// the assay JSON wire format (docs/assay-format.md).
type SubmitRequest struct {
	Seed    uint64        `json:"seed"`
	Program assay.Program `json:"program"`
}

// SubmitResponse is the POST /v1/assays reply: the SubmitResult itself.
// Eligible reports the profile placement; Cache and DedupOf report
// result-cache provenance (docs/caching.md).
type SubmitResponse = SubmitResult

// ErrorBody is the JSON error envelope of every endpoint, on both
// roles. For 422 (no compatible profile) it also carries the
// requirements placement used and the per-profile rejection reasons;
// for 429 (queue full) the queue fill, bound and per-class backlog, so
// clients can tell genuine saturation from load the cache would absorb.
// A gateway decodes its members' refusals from it.
type ErrorBody struct {
	Error        string              `json:"error"`
	Requirements *assay.Requirements `json:"requirements,omitempty"`
	Profiles     map[string]string   `json:"profiles,omitempty"`
	Queued       *int                `json:"queued,omitempty"`
	QueueDepth   int                 `json:"queue_depth,omitempty"`
	Backlog      []ClassStats        `json:"backlog,omitempty"`
}

// statusError is a refusal the handlers raise themselves (unknown job,
// malformed query), carrying its own status code.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func badRequest(msg string) error { return &statusError{http.StatusBadRequest, msg} }

var (
	errUnknownJob  = &statusError{http.StatusNotFound, "unknown job"}
	errNoTrace     = &statusError{http.StatusNotFound, "no trace for job"}
	errObsDisabled = &statusError{http.StatusNotFound, "observability disabled"}
	errNoStreaming = &statusError{http.StatusInternalServerError, "streaming unsupported"}
)

// errorReply is the single error→status table: it maps any handler or
// submission error to its status code, envelope and whether the reply
// carries a Retry-After hint.
func errorReply(err error) (code int, body ErrorBody, retry bool) {
	body = ErrorBody{Error: err.Error()}
	var se *statusError
	var tooBig *http.MaxBytesError
	var incompatible *IncompatibleError
	var full *QueueFullError
	switch {
	case errors.As(err, &se):
		return se.code, body, false
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, body, false
	case errors.As(err, &incompatible):
		body.Requirements = &incompatible.Requirements
		body.Profiles = incompatible.Reasons
		return http.StatusUnprocessableEntity, body, false
	case errors.As(err, &full):
		body.Queued, body.QueueDepth, body.Backlog = &full.Queued, full.Depth, full.Classes
		return http.StatusTooManyRequests, body, true
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, body, true
	case errors.Is(err, ErrDraining):
		// Draining is transient from a fleet's point of view: a load
		// balancer should retry against a sibling, so advertise backoff.
		return http.StatusServiceUnavailable, body, true
	case errors.Is(err, ErrClosed), errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable, body, false
	case errors.Is(err, ErrPersist):
		// The WAL append failed: the submission was refused before any
		// ack, so the client may safely retry once the store recovers.
		return http.StatusInternalServerError, body, false
	default:
		return http.StatusBadRequest, body, false
	}
}

func writeError(w http.ResponseWriter, err error) {
	code, body, retry := errorReply(err)
	if retry {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, code, body)
}

// Handler exposes the service over HTTP; see NewHandler.
func (s *Service) Handler() http.Handler { return NewHandler(s, s.met.sse) }

// NewHandler serves a Frontend over HTTP; sse counts open event-stream
// subscriptions (nil disables the gauge):
//
//	POST /v1/assays             submit a SubmitRequest, returns 202 + SubmitResponse
//	GET  /v1/assays             job listing; ?status= &limit= &after= &order=desc
//	GET  /v1/assays/{id}        job status, with the report once done;
//	                            ?wait=1 long-polls until done or ?timeout=SECONDS
//	GET  /v1/assays/{id}/events Server-Sent-Events stream of the job's
//	                            progress events; Last-Event-ID (or
//	                            ?after=SEQ) resumes without gaps or
//	                            duplicates (docs/streaming.md)
//	GET  /v1/assays/{id}/trace  the job's span tree
//	GET  /v1/stats              StatsBody
//	GET  /v1/metrics            Prometheus text exposition
//	GET  /v1/healthz            HealthBody
//
// Errors go through errorReply: a full queue maps to 429 with a
// Retry-After header, a program no profile can run to 422, an unknown
// job to 404, an oversized body to 413, a draining, closed or
// unreachable front to 503 (draining adds Retry-After) and a malformed
// program or query to 400.
func NewHandler(f Frontend, sse *obs.GaugeVec) http.Handler {
	h := &handlers{f: f, sse: sse}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/assays", h.handleSubmit)
	mux.HandleFunc("GET /v1/assays", h.handleList)
	mux.HandleFunc("GET /v1/assays/{id}", h.handleGet)
	mux.HandleFunc("GET /v1/assays/{id}/events", h.handleEvents)
	mux.HandleFunc("GET /v1/assays/{id}/trace", h.handleTrace)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.StatsBody())
	})
	mux.HandleFunc("GET /v1/metrics", h.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		code, body := f.HealthBody()
		writeJSON(w, code, body)
	})
	return mux
}

type handlers struct {
	f   Frontend
	sse *obs.GaugeVec
}

func (h *handlers) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		writeError(w, err)
		return
	}
	// A forwarding gateway stitches its span tree to ours through the
	// X-Assay-Trace header (docs/observability.md).
	res, err := h.f.Submit(req.Program, req.Seed, r.Header.Get("X-Assay-Trace"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, res)
}

func (h *handlers) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	// Long-polling is opt-in: only wait=1/wait=true hold the request, so
	// wait=0 and other spellings stay instant status checks.
	if wait := q.Get("wait"); wait != "1" && wait != "true" {
		j, ok := h.f.Get(id)
		if !ok {
			writeError(w, errUnknownJob)
			return
		}
		writeJSON(w, http.StatusOK, j)
		return
	}
	timeout, err := longPollTimeout(q.Get("timeout"))
	if err != nil {
		writeError(w, err)
		return
	}
	// Long-poll: hold the request until the job is done or the window
	// closes; either way the reply is the job snapshot, so clients just
	// re-poll while non-terminal.
	j, _, err := h.f.WaitTimeout(id, timeout)
	if err != nil {
		writeError(w, errUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// longPollTimeout parses ?timeout=SECONDS: the default when absent,
// capped at maxLongPoll. Negative and non-finite values are refused, and
// the cap applies in seconds, before the conversion to a Duration could
// overflow.
func longPollTimeout(raw string) (time.Duration, error) {
	if raw == "" {
		return DefaultLongPoll, nil
	}
	secs, err := strconv.ParseFloat(raw, 64)
	if err != nil || secs < 0 || math.IsNaN(secs) || math.IsInf(secs, 0) {
		return 0, badRequest("invalid timeout")
	}
	secs = min(secs, maxLongPoll.Seconds())
	return time.Duration(secs * float64(time.Second)), nil
}

// handleList serves GET /v1/assays: a paged job listing for operators
// and for `assayctl list` / `assayctl watch latest`.
func (h *handlers) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := ListFilter{
		Status: Status(q.Get("status")),
		After:  q.Get("after"),
		Newest: q.Get("order") == "desc",
	}
	switch f.Status {
	case "", StatusQueued, StatusRunning, StatusDone, StatusFailed:
	default:
		writeError(w, badRequest("invalid status filter"))
		return
	}
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, badRequest("invalid limit"))
			return
		}
		f.Limit = n
	}
	if order := q.Get("order"); order != "" && order != "asc" && order != "desc" {
		writeError(w, badRequest("invalid order"))
		return
	}
	writeJSON(w, http.StatusOK, h.f.List(f))
}

// handleEvents serves GET /v1/assays/{id}/events: the job's progress
// stream as Server-Sent-Events. Each event frame carries the sequence
// number as the SSE id, the event type as the SSE event name and the
// stream.Event JSON as data, so a reconnecting client that sends the
// standard Last-Event-ID header (or ?after=SEQ) resumes exactly where
// it stopped — no gaps, no duplicates — as long as the events are still
// inside the job's ring window (a synthetic gap event reports anything
// older). The stream ends after the job's terminal event; when the
// front drains for shutdown, open subscribers receive a final shutdown
// event instead of a silent hangup.
func (h *handlers) handleEvents(w http.ResponseWriter, r *http.Request) {
	after := uint64(0)
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, badRequest("invalid resume sequence"))
			return
		}
		after = n
	}
	sub, ok := h.f.SubscribeEvents(r.PathValue("id"), after)
	if !ok {
		writeError(w, errUnknownJob)
		return
	}
	defer sub.Cancel()
	h.sse.With().Add(1)
	defer h.sse.With().Add(-1)
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errNoStreaming)
		return
	}
	hdr := w.Header()
	hdr.Set("Content-Type", "text/event-stream")
	hdr.Set("Cache-Control", "no-cache")
	hdr.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// stop fires when the client hangs up or the front finishes
	// draining; the watcher goroutine ends with the request context.
	drained := h.f.Drained()
	stop := make(chan struct{})
	go func() {
		select {
		case <-r.Context().Done():
		case <-drained:
		}
		close(stop)
	}()
	for {
		ev, ok := sub.Next(stop)
		if !ok {
			break
		}
		writeSSE(w, ev)
		fl.Flush()
	}
	// Terminal shutdown event: a stream that ends while the front is
	// draining tells the subscriber the server is going away instead of
	// silently hanging up. The wait is bounded — a drain in progress
	// always completes, since every admitted job runs to termination.
	if h.f.Draining() && r.Context().Err() == nil {
		select {
		case <-drained:
			writeSSE(w, stream.Event{Type: stream.Shutdown})
			fl.Flush()
		case <-r.Context().Done():
		}
	}
}

// handleTrace serves GET /v1/assays/{id}/trace: the job's span tree.
func (h *handlers) handleTrace(w http.ResponseWriter, r *http.Request) {
	doc, ok := h.f.Trace(r.PathValue("id"))
	if !ok {
		writeError(w, errNoTrace)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleMetrics serves GET /v1/metrics as Prometheus text exposition.
// 404 when observability is disabled, so scrapers fail loudly instead
// of graphing an empty daemon.
func (h *handlers) handleMetrics(w http.ResponseWriter, r *http.Request) {
	fams, ok := h.f.MetricFamilies()
	if !ok {
		writeError(w, errObsDisabled)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteExposition(w, fams)
}

// writeSSE frames one event on the wire. Synthetic events (seq 0: gap,
// shutdown) carry no id line, so they never disturb a client's resume
// cursor. A type that would break the line framing gets no event line;
// the data line carries it regardless.
func writeSSE(w io.Writer, ev stream.Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	if ev.Seq > 0 {
		fmt.Fprintf(w, "id: %d\n", ev.Seq)
	}
	if !strings.ContainsAny(ev.Type, "\r\n") {
		fmt.Fprintf(w, "event: %s\n", ev.Type)
	}
	fmt.Fprintf(w, "data: %s\n\n", data)
}

// Health is the worker's GET /v1/healthz body.
type Health struct {
	// Status is "ok" while admitting, "draining" during shutdown.
	Status  string `json:"status"`
	Shards  int    `json:"shards"`
	Queued  int    `json:"queued"`
	Running int64  `json:"running"`
	// UptimeSeconds is time since the daemon built its fleet; Build
	// identifies the binary (runtime/debug.ReadBuildInfo). Both are
	// telemetry outside the determinism contract.
	UptimeSeconds float64    `json:"uptime_seconds"`
	Build         *obs.Build `json:"build,omitempty"`
}

// HealthBody reports liveness and the draining state: 200 while the
// service admits work, 503 once it drains — the readiness flip load
// balancers key off during a rolling restart.
func (s *Service) HealthBody() (int, any) {
	st := s.Stats()
	h := Health{
		Status:        "ok",
		Shards:        st.Shards,
		Queued:        st.Queued,
		Running:       st.Running,
		UptimeSeconds: st.UptimeSeconds,
	}
	if b, ok := buildInfo(); ok {
		h.Build = &b
	}
	if st.Draining {
		h.Status = "draining"
		return http.StatusServiceUnavailable, h
	}
	return http.StatusOK, h
}

// StatsBody is the worker's GET /v1/stats body: Stats.
func (s *Service) StatsBody() any { return s.Stats() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encoding these in-memory types cannot fail; ignore the write error
	// (the client hung up).
	_ = json.NewEncoder(w).Encode(v)
}

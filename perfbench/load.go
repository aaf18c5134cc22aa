package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biochip/internal/stream"
)

// requestTimeout bounds one job from submit to terminal event; a job
// that takes longer counts as failed.
const requestTimeout = 60 * time.Second

// record is the client-side account of one submission.
type record struct {
	idx int
	// due is when the job was scheduled to be sent (open loop) or
	// sent (closed loop); latency is measured from it.
	due, sent, acked, first, done time.Time
	id                            string
	code                          int // submit HTTP status; 0 if the request failed
	ok                            bool
	reason                        string // why the job failed
	// report is the job's report as served, kept for the jobs the
	// correctness gate replays.
	report json.RawMessage
	// walls are the worker's wall stamps of job.placed, job.started
	// and job.done, read from the job's event stream.
	walls [3]float64
}

func (r *record) latency() time.Duration { return r.done.Sub(r.due) }
func (r *record) lag() time.Duration     { return r.sent.Sub(r.due) }

// fail marks the job failed; the first reason wins.
func (r *record) fail(format string, args ...any) {
	if r.reason == "" {
		r.reason = fmt.Sprintf(format, args...)
	}
	r.ok = false
}

// driver sends one workload's jobs to a front end.
type driver struct {
	w      workload
	front  string
	client *http.Client
	// clients bounds concurrent jobs, and so requests and connections.
	clients int
	tr      *tracer
	// atMark, if set, is called once, when the mark-th job of a run
	// reaches its terminal state.
	mark   int
	atMark func()
}

// needsReport says whether the gate compares job idx's report: the
// replayed jobs, and every job when seeds repeat.
func (d *driver) needsReport(idx int) bool {
	return idx < gateSample || d.w.repeatFrac > 0
}

// newClient returns an HTTP client with at most n connections per host.
func newClient(n int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
}

// run drives jobs for the window and returns one record per submission
// sent, in submission order. A closed loop keeps clients jobs in flight
// until the window ends; an open loop sends job i at start + i/rate.
// It also returns the window's start.
func (d *driver) run(jobs []job, window time.Duration) ([]record, time.Time) {
	var (
		next  atomic.Int64
		ended atomic.Int64
		mu    sync.Mutex
		recs  []record
		wg    sync.WaitGroup
		start = time.Now()
		end   = start.Add(window)
	)
	n := len(jobs)
	if !d.w.closed {
		n = min(n, int(d.w.rate*window.Seconds()))
	}
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				var due time.Time
				if d.w.closed {
					due = time.Now()
					if !due.Before(end) {
						return
					}
				} else {
					due = start.Add(time.Duration(float64(i) / d.w.rate * float64(time.Second)))
					time.Sleep(time.Until(due))
				}
				rec := d.one(i, jobs[i], due)
				if ended.Add(1) == int64(d.mark) && d.atMark != nil {
					d.atMark()
				}
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sortRecords(recs)
	return recs, start
}

// one runs a single job to its terminal state.
func (d *driver) one(i int, j job, due time.Time) record {
	rec := record{idx: i, due: due, ok: true}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	root := d.tr.begin("client.job", i, -1)
	defer func() { d.tr.end(root) }()
	sp := d.tr.begin("service.submit", i, root)
	rec.sent = time.Now()
	id, code, err := d.submit(ctx, j)
	rec.acked = time.Now()
	d.tr.end(sp)
	rec.id, rec.code = id, code
	if err != nil {
		rec.fail("submit: %v", err)
		rec.done = time.Now()
		return rec
	}
	if d.w.sse {
		d.follow(ctx, &rec)
	} else {
		sp := d.tr.begin("service.wait", i, root)
		d.poll(ctx, &rec)
		d.tr.end(sp)
	}
	rec.done = time.Now()
	return rec
}

// submit posts the job and returns its ID from the 202 reply. Any other
// status is a refusal.
func (d *driver) submit(ctx context.Context, j job) (string, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.front+"/v1/assays",
		bytes.NewReader(d.w.submitBody(j)))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.ID == "" {
		return "", resp.StatusCode, fmt.Errorf("bad 202 body %q", body)
	}
	return ack.ID, resp.StatusCode, nil
}

// jobDoc is the subset of a GET /v1/assays/{id} reply the benchmark
// reads.
type jobDoc struct {
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Report json.RawMessage `json:"report"`
}

// getJob fetches a job; wait long-polls until it is terminal.
func (d *driver) getJob(ctx context.Context, id string, wait bool) (jobDoc, error) {
	url := d.front + "/v1/assays/" + id
	if wait {
		url += "?wait=1"
	}
	var doc jobDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return doc, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("GET %s: HTTP %d", id, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc, err
}

// poll long-polls the job until it is terminal.
func (d *driver) poll(ctx context.Context, rec *record) {
	for {
		doc, err := d.getJob(ctx, rec.id, true)
		if err != nil {
			rec.fail("wait: %v", err)
			return
		}
		switch doc.Status {
		case "done":
			if d.needsReport(rec.idx) {
				rec.report = doc.Report
			}
			return
		case "failed":
			rec.fail("job failed: %s", doc.Error)
			return
		}
	}
}

// follow reads the job's SSE stream to its terminal event. A gap, a
// failed job, a shutdown or a stream that ends early fails the job.
func (d *driver) follow(ctx context.Context, rec *record) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.front+"/v1/assays/"+rec.id+"/events", nil)
	if err != nil {
		rec.fail("events: %v", err)
		return
	}
	resp, err := d.client.Do(req)
	if err != nil {
		rec.fail("events: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.fail("events: HTTP %d", resp.StatusCode)
		return
	}
	err = readSSE(resp.Body, func(ev stream.Event) bool {
		if rec.first.IsZero() {
			rec.first = time.Now()
		}
		switch ev.Type {
		case stream.JobPlaced:
			rec.walls[0] = ev.Wall
		case stream.JobStarted:
			rec.walls[1] = ev.Wall
		case stream.JobDone:
			rec.walls[2] = ev.Wall
			return false
		case stream.Gap:
			rec.fail("stream gap %+v", *ev.Gap)
		case stream.JobFailed:
			rec.fail("job failed: %s", ev.Err)
			return false
		case stream.Shutdown:
			rec.fail("stream shut down")
			return false
		}
		return true
	})
	// The stream ends right after its terminal event; reading it to the
	// end lets the connection be reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	switch {
	case err != nil:
		rec.fail("events: %v", err)
	case rec.walls[2] == 0 && rec.ok:
		rec.fail("stream ended before job.done")
	}
}

// readSSE decodes Server-Sent-Events frames until fn returns false or
// the stream ends.
func readSSE(r io.Reader, fn func(stream.Event) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):]...)
		case line == "" && data != nil:
			var ev stream.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("bad event %q: %w", data, err)
			}
			data = nil
			if !fn(ev) {
				return nil
			}
		}
	}
	return sc.Err()
}

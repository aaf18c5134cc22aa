package service_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"biochip/internal/assay"
	"biochip/internal/federation"
	"biochip/internal/service"
)

// reply is the part of an HTTP answer both roles must agree on.
type reply struct {
	code  int // -1: still held when the client gave up
	retry string
	keys  string // sorted top-level JSON keys of an error body
}

// surfaceRow is one request of the error-surface table.
type surfaceRow struct {
	name   string
	method string
	path   string // "{job}" expands to the running job's ID
	body   string
	wait   time.Duration // client-side deadline
	want   int
}

// TestHTTPSurfaceBothRoles drives every error class through a worker
// and through a gateway fronting an identical worker, and requires the
// two to answer with the same status codes, Retry-After hints and
// error-body keys. Each worker holds its first job running and one more
// queued, so the queue is full and long-polls have a live job to hold.
func TestHTTPSurfaceBothRoles(t *testing.T) {
	incompatible := service.SmallProgram(4)
	incompatible.Requirements = &assay.Requirements{MinCols: 48, MinRows: 48}
	huge := `{"seed":1,"program":{"name":"` + strings.Repeat("x", 2<<20) + `"}}`
	prompt, hold := 5*time.Second, 300*time.Millisecond
	rows := []surfaceRow{
		{"malformed body", "POST", "/v1/assays", `{`, prompt, http.StatusBadRequest},
		{"oversized body", "POST", "/v1/assays", huge, prompt, http.StatusRequestEntityTooLarge},
		{"incompatible", "POST", "/v1/assays", submitBody(t, incompatible, 3), prompt, http.StatusUnprocessableEntity},
		{"queue full", "POST", "/v1/assays", submitBody(t, service.SmallProgram(4), 4), prompt, http.StatusTooManyRequests},
		{"bad status filter", "GET", "/v1/assays?status=sideways", "", prompt, http.StatusBadRequest},
		{"bad list limit", "GET", "/v1/assays?limit=-2", "", prompt, http.StatusBadRequest},
		{"bad resume cursor", "GET", "/v1/assays/a-999999/events?after=x", "", prompt, http.StatusBadRequest},
		{"unknown job", "GET", "/v1/assays/a-999999", "", prompt, http.StatusNotFound},
		{"unknown job long-poll", "GET", "/v1/assays/a-999999?wait=1", "", prompt, http.StatusNotFound},
		{"unknown trace", "GET", "/v1/assays/a-999999/trace", "", prompt, http.StatusNotFound},
		{"timeout NaN", "GET", "/v1/assays/{job}?wait=1&timeout=NaN", "", prompt, http.StatusBadRequest},
		{"timeout Inf", "GET", "/v1/assays/{job}?wait=1&timeout=Inf", "", prompt, http.StatusBadRequest},
		{"timeout negative", "GET", "/v1/assays/{job}?wait=1&timeout=-1", "", prompt, http.StatusBadRequest},
		{"timeout 0 is instant", "GET", "/v1/assays/{job}?wait=1&timeout=0", "", prompt, http.StatusOK},
		{"timeout 1e300 is capped, not instant", "GET", "/v1/assays/{job}?wait=1&timeout=1e300", "", hold, -1},
	}
	drainRow := surfaceRow{"draining", "POST", "/v1/assays", submitBody(t, service.SmallProgram(4), 5), prompt, http.StatusServiceUnavailable}
	rows = append(rows, drainRow)

	worker := runSurface(t, false, rows)
	gateway := runSurface(t, true, rows)
	for i, row := range rows {
		w, g := worker[i], gateway[i]
		if w.code != row.want {
			t.Errorf("%s: worker status %d, want %d", row.name, w.code, row.want)
		}
		if w != g {
			t.Errorf("%s: worker %+v, gateway %+v", row.name, w, g)
		}
	}
	wantRetry := map[string]string{"queue full": "1", "draining": "1"}
	wantKeys := map[string]string{
		"incompatible": "error,profiles,requirements",
		"queue full":   "backlog,error,queue_depth,queued",
	}
	for i, row := range rows {
		if got := worker[i].retry; got != wantRetry[row.name] {
			t.Errorf("%s: Retry-After %q, want %q", row.name, got, wantRetry[row.name])
		}
		if want, ok := wantKeys[row.name]; ok && worker[i].keys != want {
			t.Errorf("%s: body keys %q, want %q", row.name, worker[i].keys, want)
		}
	}
}

// runSurface plays the table against one role and returns the replies
// in row order. The last row runs while the front drains.
func runSurface(t *testing.T, viaGateway bool, rows []surfaceRow) []reply {
	release := make(chan struct{})
	svc := service.NewParkedService(t, 1, release)
	defer svc.Close()
	wts := httptest.NewServer(svc.Handler())
	defer wts.Close()
	base, drain := wts.URL, svc.Drain
	if viaGateway {
		g, err := federation.New(federation.Config{
			Members: []federation.MemberSpec{{Name: "w0", Addr: wts.URL,
				Profiles: []service.FleetProfileSpec{{Name: "default", Shards: 1, Cols: 40, Rows: 40}}}},
			Cache:        service.FleetCacheSpec{Disable: true},
			PollInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		gts := httptest.NewServer(g.Handler())
		defer gts.Close()
		base, drain = gts.URL, g.Drain
	}

	// One job running, one queued: the depth-1 queue is full.
	job := submit(t, base, 1)
	deadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	submit(t, base, 2)

	drained := make(chan struct{})
	defer func() {
		close(release)
		<-drained
	}()
	out := make([]reply, len(rows))
	for i, row := range rows {
		if i == len(rows)-1 {
			go func() { drain(); close(drained) }()
			for !frontDraining(t, base) {
				time.Sleep(time.Millisecond)
			}
		}
		out[i] = do(t, base, job, row)
	}
	return out
}

// frontDraining reports whether the front's health flipped to 503.
func frontDraining(t *testing.T, base string) bool {
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusServiceUnavailable
}

func do(t *testing.T, base, job string, row surfaceRow) reply {
	t.Helper()
	req, err := http.NewRequest(row.method, base+strings.ReplaceAll(row.path, "{job}", job), strings.NewReader(row.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&http.Client{Timeout: row.wait}).Do(req)
	var ue interface{ Timeout() bool }
	if errors.As(err, &ue) && ue.Timeout() {
		return reply{code: -1}
	}
	if err != nil {
		t.Fatalf("%s: %v", row.name, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", row.name, err)
	}
	r := reply{code: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
	if resp.StatusCode >= 400 {
		var body map[string]json.RawMessage
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("%s: error body %q: %v", row.name, raw, err)
		}
		keys := make([]string, 0, len(body))
		for k := range body {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		r.keys = strings.Join(keys, ",")
	} else {
		var j service.Job
		if err := json.Unmarshal(raw, &j); err != nil || j.Status == service.StatusDone || j.Status == service.StatusFailed {
			t.Fatalf("%s: want a non-terminal job, got %q (%v)", row.name, raw, err)
		}
	}
	return r
}

func submitBody(t *testing.T, pr assay.Program, seed uint64) string {
	raw, err := json.Marshal(service.SubmitRequest{Seed: seed, Program: pr})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func submit(t *testing.T, base string, seed uint64) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/assays", "application/json",
		bytes.NewReader([]byte(submitBody(t, service.SmallProgram(4), seed))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res service.SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit seed %d: status %d (%v)", seed, resp.StatusCode, err)
	}
	return res.ID
}

package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"biochip/internal/service"
)

// smallWorkload is a tiny program (about 0.03 ms of simulation) on a
// 32×32 die, a third of whose submissions repeat an earlier seed. It
// runs open loop; tests adjust the loop shape.
func smallWorkload() workload {
	return workload{name: "small", cols: 32, rows: 32, repeatFrac: 1.0 / 3,
		program: `{"name":"small","ops":[` +
			`{"op":"load","kind":"viable-cell","count":2},{"op":"settle"},{"op":"capture"},` +
			`{"op":"scan","averaging":8},{"op":"release"}]}`}
}

// serve runs an in-process assay service for w's die behind httptest,
// optionally wrapped by mw.
func serve(t *testing.T, w workload, queue int, mw func(http.Handler) http.Handler) string {
	t.Helper()
	svc, err := service.New(service.Config{Shards: 1, QueueDepth: queue, Chip: w.chipConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = svc.Handler()
	if mw != nil {
		h = mw(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv.URL
}

func newDriver(w workload, url string, clients int) *driver {
	return &driver{w: w, front: url, client: newClient(clients), clients: clients}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables, the
// workload list and BENCHMARK.json in step, and checks that a short run
// prints every end-to-end metric with its name and unit in the result
// line.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("workload %q is not defined", wl.Name)
		}
	}
	check := func(kind string, want []struct{ Name, Unit string }, got []metricDef) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the driver %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], driver %s [%s]", kind, i,
					want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)

	w := smallWorkload()
	w.closed = true
	recs, start := newDriver(w, serve(t, w, 0, nil), 2).run(w.jobList(1, measuredStream, 1000), 300*time.Millisecond)
	st := summarize(recs, start)
	if st.ok == 0 || st.failed != 0 {
		t.Fatalf("short run: %d ok, %d failed", st.ok, st.failed)
	}
	out, missing := fill(endToEnd, e2eValues(st, []float64{0.1}, []float64{0.2}, 50))
	if len(missing) > 0 {
		t.Fatalf("metrics not measured: %v", missing)
	}
	line, err := json.Marshal(verdict(recs, out))
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Correct || back.Failed != 0 || back.Attempted != len(recs) {
		t.Errorf("result line %s: want correct with %d attempted and none failed", line, len(recs))
	}
	for _, m := range spec.EndToEnd {
		got, ok := back.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("result line %s: metric %s = %+v, want a positive value in %s", line, m.Name, got, m.Unit)
		}
	}
}

// TestRefusalsCountAsFailures checks that a 422 (a program no profile
// can run) and a 429 (queue depth 1 under a burst) both count as failed
// jobs and make the result line incorrect.
func TestRefusalsCountAsFailures(t *testing.T) {
	w := smallWorkload()
	w.rate = 2000
	url := serve(t, w, 1, nil)

	big := w
	big.program = strings.Replace(w.program, `"count":2`, `"count":5000`, 1)
	recs, start := newDriver(big, url, 2).run(big.jobList(1, measuredStream, 4), time.Second)
	if st := summarize(recs, start); st.failed != len(recs) || len(recs) != 4 {
		t.Fatalf("oversized program: %d of %d failed, want all 4", st.failed, len(recs))
	}
	for _, r := range recs {
		if r.code != http.StatusUnprocessableEntity {
			t.Errorf("oversized program: job %d got HTTP %d, want 422", r.idx, r.code)
		}
	}
	if res := verdict(recs, nil); res.Correct || res.Failed != 4 {
		t.Errorf("oversized program: result correct=%v failed=%d, want incorrect with 4 failed", res.Correct, res.Failed)
	}

	slow := workloads["gather-sweep"]
	slow.closed, slow.rate = false, 2000
	recs, start = newDriver(slow, url, 4).run(slow.jobList(1, measuredStream, 12), time.Second)
	st := summarize(recs, start)
	full := 0
	for _, r := range recs {
		if r.code == http.StatusTooManyRequests {
			full++
			if r.ok {
				t.Errorf("job %d got a 429 but counts as ok", r.idx)
			}
		}
	}
	if full == 0 || st.failed < full || st.ok+st.failed != len(recs) {
		t.Fatalf("burst on queue depth 1: %d refused with 429, %d failed, %d ok of %d", full, st.failed, st.ok, len(recs))
	}
	if res := verdict(recs, nil); res.Correct || res.Failed != st.failed {
		t.Errorf("burst on queue depth 1: result correct=%v failed=%d, want incorrect with %d failed", res.Correct, res.Failed, st.failed)
	}
}

// TestOpenLoopLatencyFromDueTime checks that an open loop times each
// job from when it was due, so a stalled generator shows as latency.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const stall = 40 * time.Millisecond
	w := smallWorkload()
	w.rate = 100 // one job due every 10 ms, four times faster than the server acks
	url := serve(t, w, 0, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				time.Sleep(stall)
			}
			h.ServeHTTP(rw, r)
		})
	})
	recs, start := newDriver(w, url, 1).run(w.jobList(1, measuredStream, 6), 65*time.Millisecond)
	if len(recs) != 6 {
		t.Fatalf("sent %d jobs, want 6", len(recs))
	}
	for i, r := range recs {
		if !r.ok {
			t.Fatalf("job %d failed: %s", i, r.reason)
		}
		due := start.Add(time.Duration(i) * 10 * time.Millisecond)
		if d := r.due.Sub(due); d < -time.Millisecond || d > time.Millisecond {
			t.Errorf("job %d due %v after start, want %v", i, r.due.Sub(start), due.Sub(start))
		}
		if r.latency() != r.done.Sub(r.due) || r.latency() < r.lag()+stall {
			t.Errorf("job %d: latency %v, lag %v: latency must run from the due time", i, r.latency(), r.lag())
		}
	}
	if last := recs[len(recs)-1]; last.lag() < 4*(stall-10*time.Millisecond) {
		t.Errorf("last job lagged %v behind schedule, want ≥ %v", last.lag(), 4*(stall-10*time.Millisecond))
	}
}

// TestGateCatchesCorruptReports checks that the correctness gate passes
// served reports and fails a job whose report differs from its serial
// replay or from its seed's first occurrence.
func TestGateCatchesCorruptReports(t *testing.T) {
	w := smallWorkload()
	w.closed = true
	jobs := w.jobList(7, measuredStream, 1000)
	recs, _ := newDriver(w, serve(t, w, 0, nil), 2).run(jobs, 300*time.Millisecond)
	if n, err := gate(w, recs, jobs); err != nil || n != 0 {
		t.Fatalf("gate on served reports: %d mismatches, %v", n, err)
	}

	repeated := make(map[int]bool)
	for _, r := range recs {
		if first := jobs[r.idx].First; first != r.idx {
			repeated[first] = true
		}
	}
	// Corrupt one replayed job that no later job repeats, and one
	// repeat that is not itself replayed.
	replayed, repeat := -1, -1
	for i, r := range recs {
		switch {
		case r.idx < gateSample && jobs[r.idx].First == r.idx && !repeated[r.idx] && replayed < 0:
			replayed = i
		case r.idx >= gateSample && jobs[r.idx].First != r.idx && jobs[r.idx].First >= gateSample && repeat < 0:
			repeat = i
		}
	}
	if replayed < 0 || repeat < 0 {
		t.Fatalf("run too short to find a replayed job and a repeat (%d jobs)", len(recs))
	}
	for _, i := range []int{replayed, repeat} {
		rep := []byte(string(recs[i].report))
		rep[len(rep)/2] ^= 1
		recs[i].report = rep
	}
	n, err := gate(w, recs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || recs[replayed].ok || recs[repeat].ok {
		t.Fatalf("gate found %d mismatches (replayed job ok=%v, repeat ok=%v), want both corrupt reports caught",
			n, recs[replayed].ok, recs[repeat].ok)
	}
	if res := verdict(recs, nil); res.Correct || res.Failed != 2 {
		t.Errorf("result correct=%v failed=%d after two corrupt reports, want incorrect with 2 failed", res.Correct, res.Failed)
	}
}

package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"biochip/internal/assay"
	"biochip/internal/service"
)

// batchStub is a Frontend whose job "bad" misbehaves in one chosen way;
// every other job ends done. It logs calls so the test can check that
// runBatch submits the whole batch before the first wait.
type batchStub struct {
	service.Frontend
	bad    int
	refuse bool           // Submit of job bad is refused
	stuck  bool           // WaitTimeout of job bad times out
	status service.Status // terminal status of job bad otherwise
	calls  []string
}

func (s *batchStub) Submit(pr assay.Program, seed uint64, _ string) (service.SubmitResult, error) {
	if s.refuse && int(seed) == s.bad {
		return service.SubmitResult{}, &service.QueueFullError{Queued: 4, Depth: 4}
	}
	id := fmt.Sprintf("job-%d", seed)
	s.calls = append(s.calls, "submit "+id)
	return service.SubmitResult{ID: id}, nil
}

func (s *batchStub) WaitTimeout(id string, _ time.Duration) (service.Job, bool, error) {
	s.calls = append(s.calls, "wait "+id)
	if id != fmt.Sprintf("job-%d", s.bad) {
		return service.Job{ID: id, Status: service.StatusDone}, true, nil
	}
	if s.stuck {
		return service.Job{ID: id, Status: service.StatusRunning}, false, nil
	}
	return service.Job{ID: id, Status: s.status, Error: "boom"}, true, nil
}

func TestRunBatch(t *testing.T) {
	cases := []struct {
		name    string
		stub    batchStub
		wantErr string // substring; "" for a clean batch
	}{
		{"refused submit", batchStub{bad: 1, refuse: true}, "submit job 1 (p, seed 1)"},
		{"wait times out", batchStub{bad: 2, stuck: true}, "job job-2: still running"},
		{"job failed", batchStub{bad: 0, status: service.StatusFailed}, "job job-0: failed (boom)"},
		{"clean batch", batchStub{bad: -1}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stub := tc.stub
			jobs, wall, err := runBatch(&stub, 3, func(i int) (assay.Program, uint64) {
				return assay.Program{Name: "p"}, uint64(i)
			})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want it to contain %q", err, tc.wantErr)
				}
				if tc.stub.refuse && !errors.As(err, new(*service.QueueFullError)) {
					t.Errorf("refusal not wrapped: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			wantCalls := []string{"submit job-0", "submit job-1", "submit job-2", "wait job-0", "wait job-1", "wait job-2"}
			if !reflect.DeepEqual(stub.calls, wantCalls) {
				t.Errorf("calls = %v, want %v", stub.calls, wantCalls)
			}
			for i, j := range jobs {
				if want := fmt.Sprintf("job-%d", i); j.ID != want || j.Status != service.StatusDone {
					t.Errorf("jobs[%d] = %s %s, want %s done", i, j.ID, j.Status, want)
				}
			}
			if len(jobs) != 3 || wall < 0 {
				t.Errorf("got %d jobs, wall %v", len(jobs), wall)
			}
		})
	}
}

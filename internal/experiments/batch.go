package experiments

import (
	"fmt"
	"reflect"
	"time"

	"biochip/internal/assay"
	"biochip/internal/chip"
	"biochip/internal/geom"
	"biochip/internal/particle"
	"biochip/internal/service"
)

// batchWait bounds the wait for each job of a batch. The slowest batch
// (e16 at full scale) finishes in seconds, so a job still running after
// it is stuck.
const batchWait = 5 * time.Minute

// runBatch is the one load driver of the service-tier experiments. It
// submits n jobs to f — all of them before the first wait, so the batch
// runs at its full concurrency — then waits for each in submit order.
// It returns the terminal jobs in submit order and the batch wall-clock
// in seconds. A refused submit, a wait that times out or a job that
// does not end done is an error naming the job.
func runBatch(f service.Frontend, n int, job func(i int) (assay.Program, uint64)) ([]service.Job, float64, error) {
	start := time.Now()
	ids := make([]string, n)
	for i := range ids {
		pr, seed := job(i)
		res, err := f.Submit(pr, seed, "")
		if err != nil {
			return nil, 0, fmt.Errorf("experiments: submit job %d (%s, seed %d): %w", i, pr.Name, seed, err)
		}
		ids[i] = res.ID
	}
	jobs := make([]service.Job, n)
	for i, id := range ids {
		j, ok, err := f.WaitTimeout(id, batchWait)
		switch {
		case err != nil:
			return nil, 0, fmt.Errorf("experiments: job %s: %w", id, err)
		case !ok:
			return nil, 0, fmt.Errorf("experiments: job %s: still %s after %v", id, j.Status, batchWait)
		case j.Status != service.StatusDone:
			return nil, 0, fmt.Errorf("experiments: job %s: %s (%s)", id, j.Status, j.Error)
		}
		jobs[i] = j
	}
	return jobs, time.Since(start).Seconds(), nil
}

// sameReports reports whether two batches of the same submissions
// produced bit-identical reports, job by job.
func sameReports(a, b []service.Job) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Report, b[i].Report) {
			return false
		}
	}
	return true
}

// fleetDie builds a square die config for the service tier: serial
// per-die loops (the shards own the cores) and row-parallel readout.
func fleetDie(side int) chip.Config {
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = side, side
	cfg.SensorParallelism = side
	cfg.Parallelism = 1
	return cfg
}

// captureScan is the service tier's standard workload: load cells,
// settle, capture, scan, gather to the corner, scan again, release.
// The name is part of the cache key, so each experiment keeps its own.
func captureScan(name string, cells int) assay.Program {
	return assay.Program{
		Name: name,
		Ops: []assay.Op{
			assay.Load{Kind: particle.ViableCell(), Count: cells},
			assay.Settle{},
			assay.Capture{},
			assay.Scan{Averaging: 8},
			assay.Gather{Anchor: geom.C(1, 1)},
			assay.Scan{Averaging: 8},
			assay.ReleaseAll{},
		},
	}
}

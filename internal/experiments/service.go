package experiments

import (
	"fmt"
	"runtime"

	"biochip/internal/assay"
	"biochip/internal/service"
	"biochip/internal/table"
)

// E11ServiceScaling measures the sharded assay service (internal/
// service, the engine behind cmd/assayd): a fixed batch of seeded
// capture-scan programs dispatched across growing shard pools. Two
// platform claims are on display. Scaling: the dies are independent, so
// batch wall-clock should fall near-linearly with shards until the host
// saturates. Amortization: the cage-field calibration behind every die
// is served from the dep model cache, so the pool's cold-start cost is
// one solve no matter how many shards exist — the per-request verdicts
// stay bit-identical to serial replays throughout (the contract the
// service test suite enforces).
func E11ServiceScaling(scale Scale) (*table.Table, error) {
	side, cells, jobs := 48, 12, 12
	if scale == Quick {
		side, cells, jobs = 32, 6, 6
	}
	pr := captureScan("svc-capture-scan", cells)

	t := table.New(
		fmt.Sprintf("E11 — sharded assay service: %d jobs on %d×%d dies, %d-core host",
			jobs, side, side, runtime.GOMAXPROCS(0)),
		"shards", "wall ms", "jobs/s", "speedup", "stolen", "scan errors")
	base := 0.0
	for _, shards := range []int{1, 2, 4} {
		svc, err := service.New(service.Config{Shards: shards, Chip: fleetDie(side)})
		if err != nil {
			return nil, err
		}
		done, elapsed, err := runBatch(svc, jobs, func(i int) (assay.Program, uint64) {
			return pr, seedBase(11) + uint64(i)
		})
		st := svc.Stats()
		svc.Close()
		if err != nil {
			return nil, err
		}
		scanErrors := 0
		for _, j := range done {
			scanErrors += j.Report.ScanErrors
		}
		var stolen uint64
		for _, sh := range st.PerShard {
			stolen += sh.Stolen
		}
		if base == 0 {
			base = elapsed
		}
		t.AddRow(
			fmt.Sprintf("%d", shards),
			fmt.Sprintf("%.0f", 1000*elapsed),
			fmt.Sprintf("%.1f", float64(jobs)/elapsed),
			fmt.Sprintf("%.2fx", base/elapsed),
			fmt.Sprintf("%d", stolen),
			fmt.Sprintf("%d", scanErrors),
		)
	}
	t.Note("shape: dies are independent, so speedup tracks min(shards, host cores); calibration is solved once and cache-served to every pool; results stay bit-identical to serial replays throughout")
	return t, nil
}

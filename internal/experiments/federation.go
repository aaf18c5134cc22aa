package experiments

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"biochip/internal/assay"
	"biochip/internal/federation"
	"biochip/internal/particle"
	"biochip/internal/service"
	"biochip/internal/table"
)

// e16Program returns one of three program shapes by batch index, so the
// federated batch mixes scan-heavy, motion-heavy and minimal jobs — the
// traffic a gateway actually sees, not a single repeated assay.
func e16Program(i, cells int) assay.Program {
	switch i % 3 {
	case 1:
		return assay.Program{
			Name: "fed-scan-heavy",
			Ops: []assay.Op{
				assay.Load{Kind: particle.ViableCell(), Count: cells},
				assay.Settle{},
				assay.Capture{},
				assay.Scan{Averaging: 16},
				assay.Scan{Averaging: 16},
				assay.ReleaseAll{},
			},
		}
	case 2:
		return assay.Program{
			Name: "fed-quick-count",
			Ops: []assay.Op{
				assay.Load{Kind: particle.ViableCell(), Count: (cells + 1) / 2},
				assay.Settle{},
				assay.Capture{},
				assay.Scan{Averaging: 2},
				assay.ReleaseAll{},
			},
		}
	default:
		return captureScan("fed-capture-scan", cells)
	}
}

// e16Params sizes the experiment: die side, cell count and batch size.
func e16Params(scale Scale) (side, cells, jobs int) {
	if scale == Quick {
		return 32, 5, 9
	}
	return 40, 8, 18
}

// e16Profile is the homogeneous member fleet: one die class per worker,
// so every program has a single eligible profile and the report bits
// cannot depend on which member (or shard) executes it.
func e16Profile(side int) []service.FleetProfileSpec {
	return []service.FleetProfileSpec{
		{Name: fmt.Sprintf("die%d", side), Shards: 1, Cols: side, Rows: side},
	}
}

// e16Reference runs the mixed batch on one plain in-process service —
// the single-node ground truth the federated runs must reproduce
// bit-for-bit.
func e16Reference(profiles []service.FleetProfileSpec, jobs int, job func(int) (assay.Program, uint64)) ([]service.Job, error) {
	svc, err := service.New(service.FleetSpec{Profiles: profiles}.ServiceConfig())
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	done, _, err := runBatch(svc, jobs, job)
	return done, err
}

// e16Batch runs the mixed batch through a federation gateway fronting n
// in-process worker daemons, each a full assayd service behind a real
// HTTP listener on the loopback interface. It returns the batch
// wall-clock, the gateway's forwarded count and the terminal jobs.
func e16Batch(n int, profiles []service.FleetProfileSpec, jobs int, job func(int) (assay.Program, uint64)) (float64, uint64, []service.Job, error) {
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	specs := make([]federation.MemberSpec, 0, n)
	for i := 0; i < n; i++ {
		svc, err := service.New(service.FleetSpec{Profiles: profiles}.ServiceConfig())
		if err != nil {
			return 0, 0, nil, err
		}
		cleanup = append(cleanup, svc.Close)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0, nil, err
		}
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(ln)
		cleanup = append(cleanup, func() { srv.Close() })
		specs = append(specs, federation.MemberSpec{
			Name:     fmt.Sprintf("w%d", i),
			Addr:     "http://" + ln.Addr().String(),
			Profiles: profiles,
		})
	}
	g, err := federation.New(federation.Config{Members: specs, PollInterval: 25 * time.Millisecond})
	if err != nil {
		return 0, 0, nil, err
	}
	cleanup = append(cleanup, g.Close)
	done, elapsed, err := runBatch(g, jobs, job)
	if err != nil {
		return 0, 0, nil, err
	}
	return elapsed, g.Stats().Gateway.Forwarded, done, nil
}

// E16Federation measures the federation gateway (internal/federation,
// the engine behind assayd -gateway): a mixed batch of seeded assay
// programs dispatched through one gateway over growing worker fleets.
// Two claims are on display. Scaling: members are independent daemons
// and the gateway never re-executes a job, so batch wall-clock falls
// with the fleet until the host saturates — the federated twin of e11's
// shard scaling. Transparency: every request carries its seed and the
// members are homogeneous, so which member runs a job is invisible in
// the result bits — each federated report must be bit-identical to the
// single-node run of the same batch.
func E16Federation(scale Scale) (*table.Table, error) {
	side, cells, jobs := e16Params(scale)
	profiles := e16Profile(side)
	job := func(i int) (assay.Program, uint64) {
		return e16Program(i, cells), seedBase(16) + uint64(i)
	}
	ref, err := e16Reference(profiles, jobs, job)
	if err != nil {
		return nil, err
	}
	t := table.New(
		fmt.Sprintf("E16 — federated gateway: %d-job mixed batch over worker fleets of %d×%d dies, %d-core host",
			jobs, side, side, runtime.GOMAXPROCS(0)),
		"workers", "wall ms", "jobs/s", "speedup", "forwarded", "identical")
	base := 0.0
	for _, n := range []int{1, 2, 4} {
		elapsed, forwarded, done, err := e16Batch(n, profiles, jobs, job)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = elapsed
		}
		identical := "yes"
		if !sameReports(ref, done) {
			identical = "NO"
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", 1000*elapsed),
			fmt.Sprintf("%.1f", float64(jobs)/elapsed),
			fmt.Sprintf("%.2fx", base/elapsed),
			fmt.Sprintf("%d", forwarded),
			identical,
		)
	}
	t.Note("shape: members are independent daemons, so federated speedup tracks min(workers, host cores) exactly as e11's shard scaling does; workers here share one process, so a single-core host shows only the gateway's small proxying overhead while a multi-core host shows the multiplier; reports stay bit-identical to the single-node run throughout — determinism makes the placement decision invisible in the bits")
	return t, nil
}

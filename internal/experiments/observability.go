package experiments

import (
	"fmt"
	"runtime"

	"biochip/internal/assay"
	"biochip/internal/chip"
	"biochip/internal/obs"
	"biochip/internal/service"
	"biochip/internal/table"
)

// e17Batch runs one batch of distinct-seeded jobs through a fresh
// service with the given registry (nil = observability off) and
// returns the batch wall-clock plus the terminal jobs for bit-identity
// checks. The result cache is disabled so every job executes — the
// point is the per-execution cost of metrics and span recording, not
// cache arithmetic.
func e17Batch(cfg chip.Config, shards, jobs, cells int, reg *obs.Registry) (float64, []service.Job, error) {
	svc, err := service.New(service.Config{Shards: shards, Chip: cfg,
		Cache: service.CacheConfig{Disable: true}, Obs: reg})
	if err != nil {
		return 0, nil, err
	}
	defer svc.Close()
	pr := captureScan("cache-capture-scan", cells)
	done, elapsed, err := runBatch(svc, jobs, func(i int) (assay.Program, uint64) {
		return pr, seedBase(17) + uint64(i)
	})
	return elapsed, done, err
}

// E17ObservabilityOverhead measures the cost of the observability
// layer (internal/obs) on the service it instruments: the same
// distinct-seed batch runs with obs off (nil registry — every
// instrumentation site is a nil-vec no-op and no spans are recorded)
// and on (counters, latency histograms and a span tree per job). The
// obspurity rule guarantees telemetry cannot feed reports, so the
// reports must be bit-identical; the claim on display is cost — the
// instrumented batch must stay within 5% of the baseline wall-clock.
func E17ObservabilityOverhead(scale Scale) (*table.Table, error) {
	side, cells, jobs, shards, reps := 48, 12, 16, 4, 3
	if scale == Quick {
		side, cells, jobs, shards, reps = 32, 6, 8, 2, 2
	}
	cfg := fleetDie(side)

	t := table.New(
		fmt.Sprintf("E17 — observability overhead: %d-job batches on %d shards of %d×%d dies, best of %d, %d-core host",
			jobs, shards, side, side, reps, runtime.GOMAXPROCS(0)),
		"configuration", "wall ms", "jobs/s", "overhead", "report identical")
	var base float64
	var baseJobs []service.Job
	for _, on := range []bool{false, true} {
		name := "obs off (nil registry)"
		var best float64
		var done []service.Job
		for rep := 0; rep < reps; rep++ {
			var reg *obs.Registry
			if on {
				name = "obs on (metrics + traces)"
				reg = obs.NewRegistry()
			}
			wall, d, err := e17Batch(cfg, shards, jobs, cells, reg)
			if err != nil {
				return nil, err
			}
			if best == 0 || wall < best {
				best = wall
			}
			done = d
		}
		identical, overhead := "—", "1.00x"
		if !on {
			base, baseJobs = best, done
		} else {
			identical = "yes"
			if !sameReports(baseJobs, done) {
				identical = "NO"
			}
			overhead = fmt.Sprintf("%+.1f%%", 100*(best/base-1))
		}
		t.AddRow(name, fmt.Sprintf("%.0f", 1000*best), fmt.Sprintf("%.1f", float64(jobs)/best), overhead, identical)
	}
	t.Note("shape: every instrumentation site is a counter bump or a bounded span append off the execute path, so the instrumented row must sit within 5%% of the baseline (noise-floor on loaded hosts) with bit-identical reports — telemetry is out-of-band by construction (docs/observability.md)")
	return t, nil
}

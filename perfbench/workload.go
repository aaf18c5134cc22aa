package main

import (
	"encoding/json"
	"fmt"

	"biochip/internal/assay"
	"biochip/internal/chip"
	"biochip/internal/rng"
)

// repeatWindow bounds how far back a repeated seed reaches, in
// submissions. It stays well inside the default 1024-entry result-cache
// LRU, so every repeat is answerable from the cache.
const repeatWindow = 512

// workload is one traffic mix: the die its worker runs, how clients
// drive it, and the one program every job runs under its own seed.
// Every workload boots one worker with nproc shards.
type workload struct {
	name string
	// closed selects a closed loop of nproc clients; otherwise jobs
	// arrive open loop at rate per second.
	closed     bool
	rate       float64
	cols, rows int
	// sse makes clients follow each job's event stream to its terminal
	// event; otherwise they long-poll ?wait=1.
	sse bool
	// repeatFrac is the share of submissions that repeat an earlier
	// seed of the same run.
	repeatFrac float64
	program    string
}

// workloads are the benchmark's traffic mixes, keyed by name. The
// reasons each exists are in README.md.
var workloads = map[string]workload{
	// Route planning is ~99% of execution; the cache never hits and
	// the store is off.
	"gather-sweep": {
		name: "gather-sweep", closed: true, cols: 32, rows: 32,
		program: `{"name":"gather-sweep","ops":[` +
			`{"op":"load","kind":"viable-cell","count":6},{"op":"settle"},{"op":"capture"},` +
			`{"op":"scan","averaging":8},{"op":"gather","col":1,"row":1},` +
			`{"op":"scan","averaging":8},{"op":"release"}]}`,
	},
	// No routed op: time goes to chip physics and frame programming.
	"population-scan": {
		name: "population-scan", closed: true, cols: 96, rows: 96,
		program: `{"name":"population-scan","ops":[` +
			`{"op":"load","kind":"viable-cell","count":300},{"op":"settle"},{"op":"capture"},` +
			`{"op":"probe","frequency":10000},{"op":"wash","volumes":5},` +
			`{"op":"scan","averaging":16},{"op":"release"}]}`,
	},
}

// chipConfig is the die configuration a worker builds from its
// -cols/-rows flags (cmd/assayd), with the request seed applied: the
// configuration a serial replay must use to reproduce a report.
func (w workload) chipConfig(seed uint64) chip.Config {
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = w.cols, w.rows
	cfg.SensorParallelism = w.cols
	cfg.Parallelism = 1
	cfg.Seed = seed
	return cfg
}

// parsedProgram decodes the workload's program.
func (w workload) parsedProgram() (assay.Program, error) {
	var pr assay.Program
	if err := json.Unmarshal([]byte(w.program), &pr); err != nil {
		return pr, fmt.Errorf("workload %s: program: %w", w.name, err)
	}
	return pr, nil
}

// job is one submission: its seed and the index of the submission that
// first used that seed (its own index unless it is a repeat).
type job struct {
	Seed  uint64
	First int
}

// jobList derives n submissions from the workload seed. Seeds are
// distinct except for the workload's repeats, which reuse the seed of a
// submission at most repeatWindow places earlier. stream separates the
// measured list from the warm-up list, so warm-up never pre-fills the
// cache with a measured seed.
func (w workload) jobList(seed, stream uint64, n int) []job {
	src := rng.Substream(seed, stream)
	jobs := make([]job, n)
	for i := range jobs {
		if i > 0 && w.repeatFrac > 0 && src.Bool(w.repeatFrac) {
			back := min(i, repeatWindow)
			jobs[i] = jobs[i-1-src.Intn(back)]
			continue
		}
		jobs[i] = job{Seed: src.Uint64(), First: i}
	}
	return jobs
}

// submitBody is the POST /v1/assays body for one job.
func (w workload) submitBody(j job) []byte {
	return []byte(fmt.Sprintf(`{"seed":%d,"program":%s}`, j.Seed, w.program))
}

// Command perfbench is the repository benchmark. Each run boots fresh
// assayd daemons built from ./cmd/assayd, drives them over HTTP from
// this one process, checks every result and prints the metrics of one
// workload as a JSON line. With -trace 1 it instead makes the traced
// run: client-side spans around each HTTP call plus an in-process pass
// that times each layer's public functions, reported as per-layer
// metrics. README.md in this directory documents the workloads, the
// metrics and how to run it; run.sh builds and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"biochip/internal/service"
)

// Run-shape constants. Setup and restart are timed several times per
// run and reported as medians; a run must finish within the driver's
// 180 s limit, so the watchdog ends it before that.
const (
	setupBoots  = 31
	restartRuns = 31
	watchdog    = 170 * time.Second
	// Job-list streams of one workload seed: the measured list, the
	// warm-up list and the gateway probes never share a seed.
	measuredStream = 1
	warmupStream   = 2
	probeStream    = 3
	// warmupJobs is how many jobs run before the measured window.
	warmupJobs = 200
	// rssMark is the measured job at whose end peak_rss_mb is read. The
	// daemon keeps every finished job, so its memory follows the jobs
	// it has run: reading it after a fixed count, not at the end of a
	// fixed-time window, keeps a faster program from reading as a
	// bigger one.
	rssMark = 1000
	// hopProbes is how many serial submissions the traced run sends
	// through a gateway over its worker, the hop its window did not
	// take.
	hopProbes = 32
	// eventSample is how many jobs of a long-polling traced window have
	// their event streams fetched for queue-wait and execute times.
	eventSample = 100
)

func main() {
	name := flag.String("workload", "", "workload name: gather-sweep or population-scan")
	seed := flag.Uint64("seed", 1, "workload seed; job seeds derive from it")
	seconds := flag.Float64("seconds", 15, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	assayd := flag.String("assayd", "", "assayd binary to launch")
	work := flag.String("work", ".bench_build", "directory for run data, logs and trace files")
	flag.Parse()

	w, ok := workloads[*name]
	switch {
	case !ok:
		fatal(fmt.Errorf("unknown workload %q (want gather-sweep or population-scan)", *name))
	case *assayd == "":
		fatal(errors.New("-assayd is required"))
	case *seconds <= 0 || (*trace != 0 && *trace != 1):
		fatal(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	bin, err := filepath.Abs(*assayd)
	if err != nil {
		fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join(*work, "runs", fmt.Sprintf("%s-s%d-t%d-%d", w.name, *seed, *trace, os.Getpid())))
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	// Whatever ends the run — a signal, the watchdog or an error — the
	// daemons die with it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fatal(fmt.Errorf("stopped by %v", s))
	}()
	timer := time.AfterFunc(watchdog, func() { fatal(fmt.Errorf("run exceeded %v", watchdog)) })
	defer timer.Stop()

	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		bin: bin, dir: dir, work: *work, clients: runtime.NumCPU(), health: newClient(4)}
	var res result
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	killAll()
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// fatal kills every daemon and exits without a result line.
func fatal(err error) {
	killAll()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench is one invocation: a workload, its seed and its window.
type bench struct {
	w      workload
	seed   uint64
	window time.Duration
	bin    string
	dir    string // this run's daemons, data dirs and logs
	work   string
	// clients bounds the load generator's concurrent jobs, and so its
	// requests and connections: one per CPU.
	clients int
	health  *http.Client
}

// boot starts the workload's fleet n times, each on fresh ports and
// data directories, keeps the last and returns every start-up time.
func (b *bench) boot(tag string, n int) (*fleet, []float64, error) {
	var setups []float64
	for k := 0; ; k++ {
		f, err := newFleet(b.w, b.bin, filepath.Join(b.dir, fmt.Sprintf("%s-%d", tag, k)))
		if err != nil {
			return nil, nil, err
		}
		took, err := f.up(b.health)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if k == n-1 {
			return f, setups, nil
		}
		if err := f.down(syscall.SIGKILL); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(f.dir); err != nil {
			return nil, nil, err
		}
	}
}

func (b *bench) driver(f *fleet, tr *tracer) *driver {
	return &driver{w: b.w, front: f.worker.url(), client: newClient(b.clients), clients: b.clients, tr: tr}
}

// jobs returns a job list long enough for any closed-loop window.
func (b *bench) jobs(stream uint64, window time.Duration) []job {
	return b.w.jobList(b.seed, stream, int(window.Seconds()*2000)+100)
}

// hitRatio reads the worker's result-cache counters: hits from either
// tier plus coalesced submissions, over cacheable submissions.
func (b *bench) hitRatio(f *fleet) (float64, error) {
	resp, err := b.health.Get(f.worker.url() + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Cache *service.CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	c := st.Cache
	if c == nil {
		return 0, errors.New("stats: no cache block")
	}
	hits := c.Hits + c.DiskHits + c.Coalesced
	if total := hits + c.Misses; total > 0 {
		return float64(hits) / float64(total), nil
	}
	return 0, nil
}

// endToEnd is the untraced run: setup, warm-up, the measured window,
// the correctness gate and restarts, on fresh daemons.
func (b *bench) endToEnd() (result, error) {
	f, setups, err := b.boot("e2e", setupBoots)
	if err != nil {
		return result{}, err
	}
	d := b.driver(f, nil)
	// Warm-up seeds are disjoint from the measured ones, so connections,
	// heaps and page caches settle without pre-filling the cache.
	warm, _ := d.run(b.w.jobList(b.seed, warmupStream, warmupJobs), b.window)
	var (
		rss     float64
		rssErr  error
		rssRead bool
	)
	d.mark, d.atMark = rssMark, func() {
		rss, rssErr = f.worker.hwmMB()
		rssRead = true
	}
	jobs := b.jobs(measuredStream, b.window)
	recs, start := d.run(jobs, b.window)
	if !rssRead {
		fmt.Printf("  the window ended before job %d: peak_rss_mb is read at its end\n", rssMark)
		rss, rssErr = f.worker.hwmMB()
	}
	if rssErr != nil {
		return result{}, rssErr
	}
	mismatches, err := gate(b.w, recs, jobs)
	if err != nil {
		return result{}, err
	}
	d.client.CloseIdleConnections()
	var restarts []float64
	for k := 0; k < restartRuns; k++ {
		took, err := f.restart(b.health)
		if err != nil {
			return result{}, err
		}
		restarts = append(restarts, took.Seconds())
	}
	if err := f.down(syscall.SIGKILL); err != nil {
		return result{}, err
	}

	st := summarize(recs, start)
	all := append(warm, recs...)
	fmt.Printf("workload %s seed %d: %d jobs in a %.1f s window after %d warm-up jobs\n",
		b.w.name, b.seed, len(recs), b.window.Seconds(), len(warm))
	fmt.Printf("  failed %d of %d attempted (failed_frac %.4f); gate replayed the first %d jobs: %d mismatches\n",
		failures(all), len(all), float64(failures(all))/float64(max(len(all), 1)), gateSample, mismatches)
	printFailures(all)
	fmt.Printf("  latency samples n=%d (p99 has %d beyond it)\n", len(st.lat), len(st.lat)/100)
	out, missing := fill(endToEnd, e2eValues(st, setups, restarts, rss))
	if len(missing) > 0 {
		return result{}, fmt.Errorf("metrics not measured: %v", missing)
	}
	for _, def := range endToEnd {
		fmt.Printf("  %-12s %12.4f %s\n", def.name, out[def.name].Value, def.unit)
	}
	return verdict(all, out), nil
}

// verdict is the result line of a run whose submissions are recs: it is
// correct only if no job failed — refused, failed, timed out, cut short
// or caught by the correctness gate.
func verdict(recs []record, metrics map[string]metric) result {
	failed := failures(recs)
	return result{Correct: failed == 0, Attempted: len(recs), Failed: failed, Metrics: metrics}
}

// e2eValues names the end-to-end measurements of one run.
func e2eValues(st windowStats, setups, restarts []float64, rssMB float64) map[string]float64 {
	return map[string]float64{
		"jobs_per_s":  st.jobsPerS,
		"p50_ms":      quantile(st.lat, 0.50),
		"p99_ms":      quantile(st.lat, 0.99),
		"setup_s":     median(setups),
		"peak_rss_mb": rssMB,
		"restart_s":   median(restarts),
	}
}

// printFailures shows why the first few failed jobs failed.
func printFailures(recs []record) {
	shown := 0
	for _, r := range recs {
		if !r.ok && shown < 5 {
			fmt.Printf("    job %d (%s): %s\n", r.idx, r.id, r.reason)
			shown++
		}
	}
}

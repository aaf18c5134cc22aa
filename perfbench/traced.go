package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"biochip/internal/stream"
)

// traced is the traced run. It drives the job list for half the window
// on a fresh fleet with client-side spans around each HTTP call, then
// measures what only a live fleet shows (cache hit ratio, queue wait,
// the hop through a gateway, gateway restarts) and makes the in-process
// pass over the same jobs.
func (b *bench) traced() (result, error) {
	window := b.window / 2
	jobs := b.jobs(measuredStream, window)
	values := make(map[string]float64)

	tr := newTracer()
	f, _, err := b.boot("traced", 1)
	if err != nil {
		return result{}, err
	}
	d := b.driver(f, tr)
	recs, start := d.run(jobs, window)
	st := summarize(recs, start)
	values["trace.overhead_frac"] = tr.overhead("client.job")

	var acks, lags, waits, execs []float64
	refused := 0
	for _, r := range recs {
		if r.code != 0 && r.code != http.StatusAccepted {
			refused++
		}
		lags = append(lags, ms(r.lag()))
		if r.ok {
			acks = append(acks, ms(r.acked.Sub(r.sent)))
		}
	}
	values["service.refused"] = float64(refused)
	values["service.submit_ack_ms"] = median(acks)
	values["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	if values["cache.hit_ratio"], err = b.hitRatio(f); err != nil {
		return result{}, err
	}

	// Queue wait and execute time come from the worker's wall stamps on
	// job.placed, job.started and job.done. A cache hit replays its
	// root's stream, stamps included, so only first occurrences count.
	d.fetchEvents(recs, eventSample)
	for _, r := range recs {
		if r.ok && jobs[r.idx].First == r.idx && r.walls[0] > 0 && r.walls[1] > 0 && r.walls[2] > 0 {
			waits = append(waits, 1000*(r.walls[1]-r.walls[0]))
			execs = append(execs, 1000*(r.walls[2]-r.walls[1]))
		}
	}
	values["service.queue_wait_ms"] = median(waits)
	values["service.execute_ms"] = median(execs)

	// The hop probes time the gateway's forward hop, which the window's
	// clients, talking straight to the worker, did not take.
	if err := f.addGateway(); err != nil {
		return result{}, err
	}
	if err := startAll(f.bin, []*daemon{f.gateway}, b.health); err != nil {
		return result{}, err
	}
	probes := b.w.jobList(b.seed, probeStream, hopProbes)
	if values["federation.submit_ack_ms"], values["federation.first_event_ms"], err = b.gatewayProbes(f, probes); err != nil {
		return result{}, err
	}
	d.client.CloseIdleConnections()
	var restarts []float64
	for k := 0; k < restartRuns; k++ {
		took, err := f.restartGateway(b.health)
		if err != nil {
			return result{}, err
		}
		restarts = append(restarts, ms(took))
	}
	values["federation.restart_ms"] = median(restarts)
	if err := f.down(syscall.SIGTERM); err != nil {
		return result{}, err
	}

	lt, err := inProcessPass(b.w, jobs, b.window/3, filepath.Join(b.dir, "pass.data"), tr)
	if err != nil {
		return result{}, err
	}
	passValues(lt, values)

	if err := os.MkdirAll(filepath.Join(b.work, "traces"), 0o755); err != nil {
		return result{}, err
	}
	spans := filepath.Join(b.work, "traces", fmt.Sprintf("%s-s%d.json", b.w.name, b.seed))
	if err := tr.write(spans); err != nil {
		return result{}, err
	}
	fmt.Printf("workload %s seed %d traced: %d jobs (%.2f jobs/s) in a %.1f s window, %d in-process; spans in %s\n",
		b.w.name, b.seed, len(recs), st.jobsPerS, window.Seconds(), lt.jobs, spans)
	fmt.Printf("  tracing overhead: the tracer took %.4f%% of the HTTP jobs' time\n",
		100*values["trace.overhead_frac"])
	printFailures(recs)
	tr.printShares("  HTTP jobs", "client.job")
	tr.printShares("  in-process pass", "pass.job")

	out, missing := fill(perLayer, values)
	if len(missing) > 0 {
		return result{}, fmt.Errorf("per-layer metrics not measured: %v", missing)
	}
	for _, def := range perLayer {
		fmt.Printf("  %-26s %14.4f %s\n", def.name, out[def.name].Value, def.unit)
	}
	return verdict(recs, out), nil
}

// passValues turns the in-process totals into per-job (per-event for
// stream.*) means.
func passValues(lt *layerTotals, v map[string]float64) {
	n := float64(max(lt.jobs, 1))
	perJobMS := func(d time.Duration) float64 { return ms(d) / n }
	perJobUS := func(d time.Duration) float64 { return us(d) / n }
	events := float64(max(lt.events, 1))
	v["route.plan_ms"] = perJobMS(lt.plan)
	v["route.makespan_steps"] = float64(lt.makespan) / n
	v["route.moves"] = float64(lt.moves) / n
	v["route.allocs_per_job"] = float64(lt.routeAllocs) / n
	v["route.alloc_kb_per_job"] = float64(lt.routeBytes) / 1024 / n
	v["chip.exec_plan_ms"] = perJobMS(lt.gather - lt.plan)
	for _, op := range opNames {
		v["chip."+op+"_ms"] = perJobMS(lt.ops[op])
	}
	v["chip.scan_sites"] = float64(lt.scanSites) / n
	v["chip.frames_written"] = float64(lt.frames) / n
	v["chip.electrodes_toggled"] = float64(lt.toggles) / n
	v["chip.allocs_per_job"] = float64(lt.allocs-lt.routeAllocs) / n
	v["chip.reset_ms"] = perJobMS(lt.reset)
	v["chip.new_ms"] = ms(lt.newCold)
	v["assay.check_us"] = perJobUS(lt.check)
	v["cache.keyof_us"] = perJobUS(lt.keyOf)
	v["store.log_submit_us"] = perJobUS(lt.logSubmit)
	v["store.log_finish_us"] = perJobUS(lt.logFinish)
	v["store.bytes_per_job"] = float64(lt.storeBytes) / n
	v["store.replay_ms"] = ms(lt.replay)
	v["stream.events_per_job"] = float64(lt.events) / n
	v["stream.publish_us"] = us(lt.publish) / events
	v["stream.mirror_feed_us"] = us(lt.mirrorFeed) / events
}

// gatewayProbes runs each job serially through the fleet's gateway,
// following its event stream, and returns the median ack time and the
// median time from ack to the first relayed event.
func (b *bench) gatewayProbes(f *fleet, jobs []job) (ack, first float64, err error) {
	hop := b.w
	hop.sse = true
	via := &driver{w: hop, front: f.gateway.url(), client: b.health, clients: 1}
	var acks, firsts []float64
	for i, j := range jobs {
		r := via.one(i, j, time.Now())
		if !r.ok {
			return 0, 0, fmt.Errorf("probe through the gateway: %s", r.reason)
		}
		acks = append(acks, ms(r.acked.Sub(r.sent)))
		firsts = append(firsts, ms(r.first.Sub(r.acked)))
	}
	return median(acks), median(firsts), nil
}

// fetchEvents reads the finished event streams of up to n done jobs and
// records their job.placed/started/done wall stamps.
func (d *driver) fetchEvents(recs []record, n int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= min(n, len(recs)) {
					return
				}
				r := &recs[i]
				if !r.ok {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
				d.walls(ctx, r)
				cancel()
			}
		}()
	}
	wg.Wait()
}

// walls reads a finished job's event stream for its envelope stamps.
func (d *driver) walls(ctx context.Context, r *record) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.front+"/v1/assays/"+r.id+"/events", nil)
	if err != nil {
		return
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	_ = readSSE(resp.Body, func(ev stream.Event) bool {
		switch ev.Type {
		case stream.JobPlaced:
			r.walls[0] = ev.Wall
		case stream.JobStarted:
			r.walls[1] = ev.Wall
		case stream.JobDone:
			r.walls[2] = ev.Wall
		}
		return true
	})
}

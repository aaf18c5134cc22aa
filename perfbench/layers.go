package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"biochip/internal/assay"
	"biochip/internal/cache"
	"biochip/internal/chip"
	"biochip/internal/store"
	"biochip/internal/stream"
)

// opNames are the assay operations the pass times, each reported as
// chip.<op>_ms. Gather is split into route.plan_ms and chip.exec_plan_ms.
var opNames = []string{"load", "settle", "capture", "probe", "wash", "scan", "release"}

// layerTotals accumulates the in-process pass over its jobs.
type layerTotals struct {
	jobs                            int
	check, keyOf, logSubmit, reset  time.Duration
	logFinish, publish, mirrorFeed  time.Duration
	events                          int
	ops                             map[string]time.Duration
	plan, gather                    time.Duration
	makespan, moves, scanSites      int
	frames                          int
	toggles                         int64
	routeAllocs, routeBytes, allocs uint64
	newCold, replay                 time.Duration
	storeBytes                      int64
}

// inProcessPass calls each layer's public functions over the job list,
// in pipeline order, until budget runs out: Program.Check, cache.KeyOf,
// store LogSubmit (fsync on), Simulator.Reset, ExecuteOnStream with a
// sink that brackets every op, Ring.Publish, Mirror.Feed and store
// LogFinish. The store log it
// writes under dir is then reopened and replayed.
func inProcessPass(w workload, jobs []job, budget time.Duration, dir string, tr *tracer) (*layerTotals, error) {
	pr, err := w.parsedProgram()
	if err != nil {
		return nil, err
	}
	rawProgram, err := pr.MarshalJSON()
	if err != nil {
		return nil, err
	}
	cfg := w.chipConfig(0)
	cfgJSON, err := cache.ConfigJSON(cfg)
	if err != nil {
		return nil, err
	}
	mats := []cache.ProfileMaterial{{Name: "default", Config: cfgJSON}}
	lt := &layerTotals{ops: make(map[string]time.Duration)}

	// The first chip.New for a die spec in a process pays the cage
	// calibration; later ones hit the in-process calibration cache.
	t0 := time.Now()
	sim, err := chip.New(cfg)
	if err != nil {
		return nil, err
	}
	lt.newCold = time.Since(t0)

	disk, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(budget)
	for i, j := range jobs {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		if err := passOne(pr, rawProgram, mats, sim, disk, i, j, lt, tr); err != nil {
			disk.Close()
			return nil, fmt.Errorf("in-process job %d: %w", i, err)
		}
		lt.jobs++
	}
	if err := disk.Close(); err != nil {
		return nil, err
	}
	if lt.replay, err = replayStore(dir); err != nil {
		return nil, err
	}
	if lt.storeBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	return lt, nil
}

// replayStore times store.Open plus a full Replay of the log in dir.
func replayStore(dir string) (time.Duration, error) {
	t0 := time.Now()
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	n := 0
	if err := d.Replay(func(*store.Record) error { n++; return nil }); err != nil {
		d.Close()
		return 0, err
	}
	took := time.Since(t0)
	if err := d.Close(); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("store %s replayed no records", filepath.Base(dir))
	}
	return took, nil
}

// opBracket is the state the op sink carries from op.started to
// op.finished.
type opBracket struct {
	span     int
	start    time.Time
	planSecs float64
	mem      runtime.MemStats
}

func passOne(pr assay.Program, raw json.RawMessage, mats []cache.ProfileMaterial,
	sim *chip.Simulator, disk *store.Disk, i int, j job, lt *layerTotals, tr *tracer) error {
	id := fmt.Sprintf("p-%06d", i+1)
	cfg := sim.Config()
	root := tr.begin("pass.job", i, -1)
	defer func() { tr.end(root) }()

	timed := func(name string, acc *time.Duration, fn func() error) error {
		sp := tr.begin(name, i, root)
		t0 := time.Now()
		err := fn()
		*acc += time.Since(t0)
		tr.end(sp)
		return err
	}
	if err := timed("assay.check", &lt.check, func() error { return pr.Check(cfg) }); err != nil {
		return err
	}
	if err := timed("cache.keyof", &lt.keyOf, func() error {
		_, err := cache.KeyOf(pr, j.Seed, mats)
		return err
	}); err != nil {
		return err
	}
	if err := timed("store.log_submit", &lt.logSubmit, func() error {
		return disk.LogSubmit(store.SubmitRecord{ID: id, Seed: j.Seed, Program: raw})
	}); err != nil {
		return err
	}
	if err := timed("chip.reset", &lt.reset, func() error { return sim.Reset(j.Seed) }); err != nil {
		return err
	}

	// Execute with a sink that turns each op.started/op.finished pair
	// into a span and reads the die's counters at the brackets.
	var (
		evs      []stream.Event
		br       opBracket
		execMem0 runtime.MemStats
		arr0     = sim.ArrayStats()
	)
	planSeconds := func() float64 {
		total := 0.0
		for _, st := range sim.PlanStats() {
			total += st.PlanSeconds
		}
		return total
	}
	exec := tr.begin("assay.execute", i, root)
	sink := func(ev stream.Event) {
		evs = append(evs, ev)
		if ev.Op == nil {
			return
		}
		routed := ev.Op.Kind == "gather" || ev.Op.Kind == "move"
		switch ev.Type {
		case stream.OpStarted:
			br = opBracket{span: tr.begin("chip."+ev.Op.Kind, i, exec), planSecs: planSeconds()}
			if routed {
				runtime.ReadMemStats(&br.mem)
			}
			br.start = time.Now()
		case stream.OpFinished:
			took := time.Since(br.start)
			tr.end(br.span)
			if !routed {
				lt.ops[ev.Op.Kind] += took
				return
			}
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			plan := time.Duration((planSeconds() - br.planSecs) * float64(time.Second))
			tr.add("route.plan", i, br.span, br.start, plan)
			lt.plan += plan
			lt.gather += took
			lt.routeAllocs += m.Mallocs - br.mem.Mallocs
			lt.routeBytes += m.TotalAlloc - br.mem.TotalAlloc
		}
	}
	runtime.ReadMemStats(&execMem0)
	rep, err := assay.ExecuteOnStream(sim, pr, sink)
	var execMem1 runtime.MemStats
	runtime.ReadMemStats(&execMem1)
	tr.end(exec)
	if err != nil {
		return err
	}
	lt.allocs += execMem1.Mallocs - execMem0.Mallocs
	arr1 := sim.ArrayStats()
	lt.frames += arr1.FramesWritten - arr0.FramesWritten
	lt.toggles += arr1.ElectrodesToggled - arr0.ElectrodesToggled
	lt.scanSites += rep.ScanSites
	for _, r := range rep.Routings {
		lt.makespan += r.Makespan
		lt.moves += r.Moves
	}

	// The service wraps the executor's events in job envelope events
	// and publishes them into the job's ring as they happen.
	evs = append([]stream.Event{
		{Type: stream.JobPlaced, Job: &stream.JobInfo{ID: id, Program: pr.Name, Seed: j.Seed}},
		{Type: stream.JobStarted, Job: &stream.JobInfo{Profile: "default"}},
	}, evs...)
	evs = append(evs, stream.Event{Type: stream.JobDone, Job: &stream.JobInfo{
		Duration: rep.Duration, Trapped: rep.Trapped, Steps: rep.Steps, ScanErrors: rep.ScanErrors}})
	lt.events += len(evs)
	t0, took := publishAll(evs)
	tr.add("stream.publish", i, root, t0, took)
	lt.publish += took
	mirror := stream.NewMirror(0)
	_ = timed("stream.mirror_feed", &lt.mirrorFeed, func() error {
		for _, ev := range evs {
			mirror.Feed(ev)
		}
		return nil
	})
	mirror.Close()

	repJSON, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return timed("store.log_finish", &lt.logFinish, func() error {
		return disk.LogFinish(store.FinishRecord{ID: id, Status: "done", Profile: "default",
			Eligible: []string{"default"}, Report: repJSON, Events: evs})
	})
}

// publishAll publishes evs into a fresh ring, as the service does for
// a job its long-polling clients do not subscribe to, and stamps each
// event with the sequence number the ring assigned. It returns when
// publishing started and how long the Publish calls took.
func publishAll(evs []stream.Event) (time.Time, time.Duration) {
	ring := stream.NewRing(0)
	t0 := time.Now()
	for k := range evs {
		evs[k].Seq = ring.Publish(evs[k])
	}
	took := time.Since(t0)
	ring.Close()
	return t0, took
}

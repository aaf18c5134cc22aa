package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one reported metric: BENCHMARK.json lists the same
// names and units (TestMetricTablesMatchBenchmarkJSON keeps them in
// step).
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"restart_s", "s"},
}

// perLayer are the traced run's metrics. Times from the in-process pass
// are means per job (per event for stream.*); times from HTTP spans
// are medians over the traced window's jobs.
var perLayer = []metricDef{
	{"route.plan_ms", "ms"},
	{"route.makespan_steps", "count"},
	{"route.moves", "count"},
	{"route.allocs_per_job", "count"},
	{"route.alloc_kb_per_job", "kB"},
	{"chip.exec_plan_ms", "ms"},
	{"chip.load_ms", "ms"},
	{"chip.settle_ms", "ms"},
	{"chip.capture_ms", "ms"},
	{"chip.probe_ms", "ms"},
	{"chip.wash_ms", "ms"},
	{"chip.scan_ms", "ms"},
	{"chip.release_ms", "ms"},
	{"chip.scan_sites", "count"},
	{"chip.frames_written", "count"},
	{"chip.electrodes_toggled", "count"},
	{"chip.allocs_per_job", "count"},
	{"chip.reset_ms", "ms"},
	{"chip.new_ms", "ms"},
	{"assay.check_us", "us"},
	{"cache.keyof_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"store.log_submit_us", "us"},
	{"store.log_finish_us", "us"},
	{"store.bytes_per_job", "B"},
	{"store.replay_ms", "ms"},
	{"stream.events_per_job", "count"},
	{"stream.publish_us", "us"},
	{"stream.mirror_feed_us", "us"},
	{"service.submit_ack_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.execute_ms", "ms"},
	{"service.refused", "count"},
	{"federation.submit_ack_ms", "ms"},
	{"federation.first_event_ms", "ms"},
	{"federation.restart_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill sets every metric of defs from values; a metric missing from
// values is a bug in the run that produced them.
func fill(defs []metricDef, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, missing
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowStats summarizes one measured window.
type windowStats struct {
	ok, failed int
	jobsPerS   float64
	// lat holds the ok jobs' latencies in ms (from the due time).
	lat []float64
}

// summarize computes throughput over the window — completed jobs per
// second from the window start to the last completion — and latency
// samples.
func summarize(recs []record, start time.Time) windowStats {
	var st windowStats
	var last time.Time
	for i := range recs {
		r := &recs[i]
		if !r.ok {
			st.failed++
			continue
		}
		st.ok++
		st.lat = append(st.lat, ms(r.latency()))
		if r.done.After(last) {
			last = r.done
		}
	}
	if st.ok > 0 {
		st.jobsPerS = float64(st.ok) / last.Sub(start).Seconds()
	}
	return st
}

// failures counts the failed jobs.
func failures(recs []record) int {
	n := 0
	for _, r := range recs {
		if !r.ok {
			n++
		}
	}
	return n
}

func sortRecords(recs []record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].idx < recs[j].idx })
}

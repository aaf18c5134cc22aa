package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"biochip/internal/assay"
)

// gateSample is how many of a run's first jobs the correctness gate
// replays serially.
const gateSample = 32

// gate checks the served reports after the measured window: each of the
// first gateSample done jobs must equal, byte for byte, a serial
// assay.Execute of its (program, seed) under the executing profile's
// die config, and each repeated seed's report must equal the report of
// its first occurrence. Every mismatch fails its job; gate returns how
// many it failed.
func gate(w workload, recs []record, jobs []job) (int, error) {
	pr, err := w.parsedProgram()
	if err != nil {
		return 0, err
	}
	byIdx := make(map[int]*record, len(recs))
	for i := range recs {
		byIdx[recs[i].idx] = &recs[i]
	}
	mismatches := 0
	for i := range recs {
		r := &recs[i]
		if !r.ok || r.idx >= gateSample {
			continue
		}
		rep, err := assay.Execute(pr, w.chipConfig(jobs[r.idx].Seed))
		if err != nil {
			return 0, fmt.Errorf("replay of job %d: %w", r.idx, err)
		}
		want, err := json.Marshal(rep)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(want, r.report) {
			r.fail("report differs from its serial replay")
			mismatches++
		}
	}
	for i := range recs {
		r := &recs[i]
		first := jobs[r.idx].First
		if !r.ok || first == r.idx {
			continue
		}
		// A repeat whose first occurrence failed or fell outside the
		// window has nothing to compare against; the failure itself is
		// already counted.
		f, ok := byIdx[first]
		if !ok || !f.ok {
			continue
		}
		if !bytes.Equal(f.report, r.report) {
			r.fail("report differs from the report of its first occurrence %d", first)
			mismatches++
		}
	}
	return mismatches, nil
}

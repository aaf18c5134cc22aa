package route

import (
	"testing"
)

// TestPlanAllocs holds the production planner's allocations per plan
// under fixed ceilings. For a fixed instance the count is exact, so
// unlike wall time this gate cannot flake. Before the flat search core
// the same two plans took 44363 and 17840 allocations.
func TestPlanAllocs(t *testing.T) {
	random, err := RandomProblem(24, 24, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		prob    Problem
		ceiling float64
	}{
		{"gather-sweep/seed-1", gatherSweepProblems()[0], 95},
		{"random-24-16", random, 105},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(5, func() {
			plan, err := (Prioritized{}).Plan(c.prob)
			if err != nil || !plan.Solved {
				t.Fatalf("%s: unsolved (%v)", c.name, err)
			}
		})
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocations per plan, ceiling %.0f", c.name, allocs, c.ceiling)
		}
		t.Logf("%s: %.0f allocations per plan", c.name, allocs)
	}
}

// TestTableResetAndGrow checks the flat table's contract: reset empties
// it without dropping storage, growth keeps every live entry, and
// entries from before a reset never reappear.
func TestTableResetAndGrow(t *testing.T) {
	var m table
	if m.has(1) {
		t.Fatal("zero table has a key")
	}
	for k := uint64(0); k < 1000; k++ {
		v, added := m.upsert(k << 32)
		if !added {
			t.Fatalf("key %d already present", k)
		}
		*v = int32(k)
	}
	for k := uint64(0); k < 1000; k++ {
		if v, ok := m.get(k << 32); !ok || v != int32(k) {
			t.Fatalf("key %d: got %d, %v", k, v, ok)
		}
	}
	capacity := len(m.slots)
	if m.n != 1000 || 2*m.n > capacity {
		t.Fatalf("%d entries in %d slots", m.n, capacity)
	}
	m.reset()
	if m.has(5<<32) || m.n != 0 || len(m.slots) != capacity {
		t.Fatal("reset kept an entry or dropped storage")
	}
	if v, added := m.upsert(5 << 32); !added || *v != 0 {
		t.Fatal("re-inserted key must start at zero")
	}
	// A wrapped generation stamp must not revive stale slots.
	m.gen = ^uint32(0)
	m.reset()
	if m.has(6<<32) || m.gen != 1 {
		t.Fatal("generation wrap revived a stale entry")
	}
}

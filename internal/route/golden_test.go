package route

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"biochip/internal/geom"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_plans.txt from the current planners")

// gatherSweepProblems are the routing instances of the benchmark's
// gather-sweep workload: six viable cells loaded, settled, captured and
// scanned on a 32×32 die (chip seeds 1–5), then gathered into the packed
// block anchored at (1,1) with assay.GatherProblem's nearest-goal
// assignment. They are frozen here so the golden digests do not move
// when the chip physics does.
func gatherSweepProblems() []Problem {
	agents := [][]Agent{
		{ // seed 1
			{ID: 0, Start: geom.C(18, 12), Goal: geom.C(11, 1)},
			{ID: 1, Start: geom.C(22, 6), Goal: geom.C(9, 1)},
			{ID: 2, Start: geom.C(27, 17), Goal: geom.C(7, 1)},
			{ID: 3, Start: geom.C(29, 30), Goal: geom.C(5, 1)},
			{ID: 4, Start: geom.C(19, 29), Goal: geom.C(3, 1)},
			{ID: 5, Start: geom.C(3, 16), Goal: geom.C(1, 1)},
		},
		{ // seed 2
			{ID: 0, Start: geom.C(6, 24), Goal: geom.C(5, 1)},
			{ID: 1, Start: geom.C(22, 7), Goal: geom.C(11, 1)},
			{ID: 2, Start: geom.C(20, 24), Goal: geom.C(9, 1)},
			{ID: 3, Start: geom.C(23, 11), Goal: geom.C(7, 1)},
			{ID: 4, Start: geom.C(30, 4), Goal: geom.C(3, 1)},
			{ID: 5, Start: geom.C(20, 22), Goal: geom.C(1, 1)},
		},
		{ // seed 3
			{ID: 0, Start: geom.C(8, 17), Goal: geom.C(7, 1)},
			{ID: 1, Start: geom.C(14, 13), Goal: geom.C(11, 1)},
			{ID: 2, Start: geom.C(30, 6), Goal: geom.C(9, 1)},
			{ID: 3, Start: geom.C(29, 22), Goal: geom.C(5, 1)},
			{ID: 4, Start: geom.C(22, 4), Goal: geom.C(3, 1)},
			{ID: 5, Start: geom.C(3, 4), Goal: geom.C(1, 1)},
		},
		{ // seed 4
			{ID: 0, Start: geom.C(16, 30), Goal: geom.C(11, 1)},
			{ID: 1, Start: geom.C(7, 19), Goal: geom.C(7, 1)},
			{ID: 2, Start: geom.C(1, 12), Goal: geom.C(1, 1)},
			{ID: 3, Start: geom.C(1, 30), Goal: geom.C(3, 1)},
			{ID: 4, Start: geom.C(24, 12), Goal: geom.C(9, 1)},
			{ID: 5, Start: geom.C(14, 5), Goal: geom.C(5, 1)},
		},
		{ // seed 5
			{ID: 0, Start: geom.C(21, 27), Goal: geom.C(11, 1)},
			{ID: 1, Start: geom.C(16, 25), Goal: geom.C(9, 1)},
			{ID: 2, Start: geom.C(11, 11), Goal: geom.C(7, 1)},
			{ID: 3, Start: geom.C(30, 8), Goal: geom.C(5, 1)},
			{ID: 4, Start: geom.C(18, 29), Goal: geom.C(3, 1)},
			{ID: 5, Start: geom.C(23, 26), Goal: geom.C(1, 1)},
		},
	}
	out := make([]Problem, len(agents))
	for i, a := range agents {
		out[i] = Problem{Cols: 32, Rows: 32, Agents: a}
	}
	return out
}

type goldenInstance struct {
	name string
	prob Problem
	// paperScale marks the instances experiments build at Full scale.
	paperScale bool
}

// goldenInstances are the routing instances experiments e7, e7b, e7c and
// e12 build at both scales (seedBase(n) = n·1_000_003), plus the
// gather-sweep instances.
func goldenInstances(t testing.TB) []goldenInstance {
	t.Helper()
	var out []goldenInstance
	add := func(name string, p Problem, err error, paperScale bool) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, goldenInstance{name, p, paperScale})
	}
	const e7, e12 = 7 * 1_000_003, 12 * 1_000_003
	for _, sz := range []struct {
		grid, n int
		paper   bool
	}{{64, 4, false}, {64, 8, false}, {64, 16, false}, {128, 8, true}, {128, 32, true}, {128, 64, true}, {128, 128, true}} {
		p, err := RandomProblem(sz.grid, sz.grid, sz.n, e7+uint64(sz.n))
		add(fmt.Sprintf("e7/random-%d-%d", sz.grid, sz.n), p, err, sz.paper)
	}
	for _, sz := range []struct{ grid, n int }{{48, 4}, {48, 8}, {96, 8}, {96, 16}, {96, 24}} {
		p, err := TransposeProblem(sz.grid, sz.grid, sz.n)
		add(fmt.Sprintf("e7/transpose-%d-%d", sz.grid, sz.n), p, err, sz.grid == 96)
	}
	for _, sz := range []struct{ grid, n int }{{160, 16}, {320, 64}} {
		paper := sz.grid == 320
		p, err := LocalProblem(sz.grid, sz.grid, sz.n, 6, e12)
		add(fmt.Sprintf("e12/local-%d-%d", sz.grid, sz.n), p, err, paper)
		p, err = RandomProblem(sz.grid/2, sz.grid/2, sz.n, e12+1)
		add(fmt.Sprintf("e12/random-%d-%d", sz.grid/2, sz.n), p, err, paper)
		p, err = TransposeProblem(sz.grid/2, sz.grid/2, sz.n/2)
		add(fmt.Sprintf("e12/transpose-%d-%d", sz.grid/2, sz.n/2), p, err, paper)
	}
	for i, p := range gatherSweepProblems() {
		add(fmt.Sprintf("gather-sweep/seed-%d", i+1), p, nil, false)
	}
	return out
}

// goldenPlanners are every registered planner family, the four
// Prioritized orders (RandomOrder at the registry's seed and at e7b's)
// and the partitioned meta-planner.
func goldenPlanners() []Planner {
	return []Planner{
		Greedy{},
		Windowed{},
		Prioritized{Order: LongestFirst},
		Prioritized{Order: ShortestFirst},
		Prioritized{Order: DeclaredOrder},
		Prioritized{Order: RandomOrder},
		Prioritized{Order: RandomOrder, Seed: 7 * 1_000_003},
		Partitioned{},
	}
}

// planDigest hashes everything a plan's consumers act on: the planner
// name, the Solved flag and every path, in agent-ID order.
func planDigest(pl *Plan) string {
	h := sha256.New()
	fmt.Fprintf(h, "planner=%s solved=%t\n", pl.Planner, pl.Solved)
	ids := make([]int, 0, len(pl.Paths))
	for id := range pl.Paths {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "%d:", id)
		for _, c := range pl.Paths[id] {
			fmt.Fprintf(h, " %d,%d", c.Col, c.Row)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDigests plans one instance with every golden planner, and
// compacts and refines every solved plan. Keys are "<instance>
// <planner>[ compact| refine]".
func goldenDigests(t *testing.T, in goldenInstance) map[string]string {
	t.Helper()
	got := make(map[string]string)
	for _, pl := range goldenPlanners() {
		name := pl.Name()
		if pr, ok := pl.(Prioritized); ok && pr.Seed != 0 {
			name = fmt.Sprintf("%s/seed-%d", name, pr.Seed)
		}
		key := in.name + " " + name
		plan, err := pl.Plan(in.prob)
		if err != nil && !errors.As(err, new(*RoundsExhaustedError)) {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = planDigest(plan)
		if !plan.Solved {
			continue
		}
		compacted, _ := Compact(in.prob, plan)
		got[key+" compact"] = planDigest(compacted)
		refined, _ := Refine(in.prob, plan, 3)
		got[key+" refine"] = planDigest(refined)
	}
	return got
}

// TestGoldenPlans pins every plan, byte for byte, that the planners and
// post-optimizers produce on the experiment and gather-sweep instances.
// The search core may be rewritten for speed but must reproduce these
// digests exactly, heap tie-break order included; that is what keeps
// every experiment table and cached report unchanged. Run with -update
// to rewrite the file after an intended change of plans.
//
// Under the race detector the paper-scale instances are skipped: they
// take minutes there, the search they exercise is single-goroutine, and
// the partitioned planner's concurrency is covered by the rest.
func TestGoldenPlans(t *testing.T) {
	path := filepath.Join("testdata", "golden_plans.txt")
	if *updateGolden && raceEnabled {
		t.Fatal("-update needs every instance; run it without -race")
	}
	want := make(map[string]string)
	if !*updateGolden {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("malformed golden line %q", line)
			}
			want[line[:i]] = line[i+1:]
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	instances := goldenInstances(t)
	names := make(map[string]bool, len(instances))
	for _, in := range instances {
		names[in.name] = true
	}
	for k := range want {
		if inst, _, _ := strings.Cut(k, " "); !names[inst] {
			t.Errorf("%s: instance no longer produced", k)
		}
	}
	var mu sync.Mutex
	got := make(map[string]string)
	t.Run("instances", func(t *testing.T) {
		for _, in := range instances {
			t.Run(in.name, func(t *testing.T) {
				if in.paperScale && raceEnabled {
					t.Skip("paper-scale instance under the race detector")
				}
				t.Parallel()
				digests := goldenDigests(t, in)
				mu.Lock()
				defer mu.Unlock()
				for k, d := range digests {
					got[k] = d
				}
				if *updateGolden {
					return
				}
				for k, d := range digests {
					if w, ok := want[k]; !ok {
						t.Errorf("%s: case missing from %s", k, path)
					} else if d != w {
						t.Errorf("%s: digest %s, want %s", k, d, w)
					}
				}
				for k := range want {
					if strings.HasPrefix(k, in.name+" ") {
						if _, ok := digests[k]; !ok {
							t.Errorf("%s: case no longer produced", k)
						}
					}
				}
			})
		}
	})
	if !*updateGolden || t.Failed() {
		return
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, got[k])
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

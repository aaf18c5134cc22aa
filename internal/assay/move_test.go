package assay

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"biochip/internal/cage"
	"biochip/internal/chip"
	"biochip/internal/geom"
	"biochip/internal/particle"
	"biochip/internal/rng"
)

func moveTestConfig() chip.Config {
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = 40, 40
	cfg.SensorParallelism = 40
	cfg.Parallelism = 1
	cfg.Seed = 77
	return cfg
}

// capturedSim loads, settles and captures a small population, returning
// the simulator plus the sorted trapped IDs.
func capturedSim(t *testing.T, cfg chip.Config) (*chip.Simulator, []int) {
	t.Helper()
	sim, err := chip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kind := particle.ViableCell()
	if _, err := sim.Load(&kind, 6); err != nil {
		t.Fatal(err)
	}
	sim.Settle(sim.Chamber().Height / (5e-6))
	if _, trapped, err := sim.CaptureAll(); err != nil || trapped == 0 {
		t.Fatalf("capture: %d trapped, err %v", trapped, err)
	}
	return sim, sim.Layout().IDs()
}

// moveProgramFor builds a complete load→capture→move→scan program whose
// move targets are the cages the seeded capture actually traps (packed
// lattice goals at the south-west interior corner).
func moveProgramFor(t *testing.T, cfg chip.Config, planner string) Program {
	t.Helper()
	_, ids := capturedSim(t, cfg)
	mv := Move{Planner: planner}
	for i, id := range ids {
		mv.Agents = append(mv.Agents, MoveTarget{ID: id, Goal: geom.C(1+2*i, 1)})
	}
	return Program{
		Name: "move-scan",
		Ops: []Op{
			Load{Kind: particle.ViableCell(), Count: 6},
			Settle{},
			Capture{},
			mv,
			Scan{Averaging: 8},
		},
	}
}

func TestMoveCheckRejections(t *testing.T) {
	cfg := moveTestConfig()
	viable := particle.ViableCell()
	base := []Op{Load{Kind: viable, Count: 4}, Settle{}, Capture{}}
	cases := []struct {
		name string
		op   Move
	}{
		{"before capture", Move{Agents: []MoveTarget{{ID: 0, Goal: geom.C(2, 2)}}}},
		{"no agents", Move{}},
		{"unknown planner", Move{Planner: "warp-drive",
			Agents: []MoveTarget{{ID: 0, Goal: geom.C(2, 2)}}}},
		{"negative id", Move{Agents: []MoveTarget{{ID: -1, Goal: geom.C(2, 2)}}}},
		{"duplicate id", Move{Agents: []MoveTarget{
			{ID: 0, Goal: geom.C(2, 2)}, {ID: 0, Goal: geom.C(8, 8)}}}},
		{"goal in margin", Move{Agents: []MoveTarget{{ID: 0, Goal: geom.C(0, 5)}}}},
		{"goals too close", Move{Agents: []MoveTarget{
			{ID: 0, Goal: geom.C(5, 5)}, {ID: 1, Goal: geom.C(6, 5)}}}},
	}
	for _, tc := range cases {
		ops := base
		if tc.name == "before capture" {
			ops = []Op{Load{Kind: viable, Count: 4}}
		}
		pr := Program{Name: "bad", Ops: append(append([]Op{}, ops...), tc.op)}
		if err := pr.Check(cfg); err == nil {
			t.Errorf("%s: Check accepted invalid move", tc.name)
		}
	}
}

// quadraticGoalCheck is the O(agents²) separation check the cell index
// replaced: the first goal closer than MinSeparation to an earlier one,
// paired with the lowest such earlier index, in the check's error text.
func quadraticGoalCheck(op int, agents []MoveTarget) string {
	for k, tgt := range agents {
		for _, prev := range agents[:k] {
			if tgt.Goal.Chebyshev(prev.Goal) < cage.MinSeparation {
				return fmt.Sprintf("assay: op %d: goals %v and %v too close", op, prev.Goal, tgt.Goal)
			}
		}
	}
	return ""
}

// TestMoveGoalCheckMatchesQuadratic checks the indexed separation check
// against the quadratic loop over random goal sets, dense enough that
// most sets hold a too-close pair, with byte-identical error text.
func TestMoveGoalCheckMatchesQuadratic(t *testing.T) {
	src := rng.New(16)
	base := []Op{Load{Kind: particle.ViableCell(), Count: 4}, Capture{}}
	rejected := 0
	for trial := 0; trial < 2000; trial++ {
		side := 2 + src.Intn(24)
		agents := make([]MoveTarget, 1+src.Intn(40))
		for k := range agents {
			agents[k] = MoveTarget{ID: k, Goal: geom.C(cage.Margin+src.Intn(side), cage.Margin+src.Intn(side))}
		}
		want := quadraticGoalCheck(len(base), agents)
		pr := Program{Name: "diff", Ops: append(append([]Op{}, base...), Move{Agents: agents})}
		got := ""
		if err := pr.CheckOps(); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Fatalf("trial %d (%d agents on a %d² block): CheckOps %q, quadratic %q", trial, len(agents), side, got, want)
		}
		if want != "" {
			rejected++
		}
	}
	if rejected == 0 || rejected == 2000 {
		t.Fatalf("%d of 2000 random goal sets rejected; want both outcomes covered", rejected)
	}
}

// BenchmarkCheckOpsLargeMove costs admission of a move with 32,761
// agents on a MinSeparation lattice — every goal legal, so the
// separation check runs to the end.
func BenchmarkCheckOpsLargeMove(b *testing.B) {
	const side = 181
	mv := Move{Agents: make([]MoveTarget, 0, side*side)}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			mv.Agents = append(mv.Agents, MoveTarget{ID: len(mv.Agents),
				Goal: geom.C(cage.Margin+c*cage.MinSeparation, cage.Margin+r*cage.MinSeparation)})
		}
	}
	pr := Program{Name: "large-move", Ops: []Op{Load{Kind: particle.ViableCell(), Count: 4}, Capture{}, mv}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := pr.CheckOps(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMoveExecutesWithEveryPlannerFamily(t *testing.T) {
	cfg := moveTestConfig()
	for _, planner := range []string{"", "prioritized", "partitioned", "greedy"} {
		pr := moveProgramFor(t, cfg, planner)
		rep, err := Execute(pr, cfg)
		if err != nil {
			t.Fatalf("planner %q: %v", planner, err)
		}
		if len(rep.Routings) != 1 || rep.Routings[0].Op != "move" {
			t.Fatalf("planner %q: routings = %+v", planner, rep.Routings)
		}
		rr := rep.Routings[0]
		if rr.Planner == "" || rr.Agents == 0 {
			t.Errorf("planner %q: empty provenance %+v", planner, rr)
		}
		if rep.Steps < rr.Makespan {
			t.Errorf("planner %q: steps %d < makespan %d", planner, rep.Steps, rr.Makespan)
		}
		// The event log attributes the executed plan to the planner.
		attributed := false
		for _, e := range rep.Events {
			if strings.Contains(e, "executed plan ("+rr.Planner+")") {
				attributed = true
			}
		}
		if !attributed {
			t.Errorf("planner %q: no provenance in event log", planner)
		}
	}
}

func TestMoveUnknownAgentFailsAtRuntime(t *testing.T) {
	cfg := moveTestConfig()
	pr := Program{
		Name: "bad-id",
		Ops: []Op{
			Load{Kind: particle.ViableCell(), Count: 4},
			Settle{},
			Capture{},
			Move{Agents: []MoveTarget{{ID: 999, Goal: geom.C(5, 5)}}},
		},
	}
	if _, err := Execute(pr, cfg); err == nil {
		t.Fatal("moving an id that is not a trapped cage must fail")
	}
}

func TestMoveRecordsPlannerStatsOnDie(t *testing.T) {
	cfg := moveTestConfig()
	pr := moveProgramFor(t, cfg, "partitioned")
	sim, err := chip.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteOn(sim, pr); err != nil {
		t.Fatal(err)
	}
	stats := sim.PlanStats()
	st, ok := stats["partitioned"]
	if !ok {
		t.Fatalf("no partitioned entry in die plan stats: %v", stats)
	}
	if st.Plans != 1 || st.Moves == 0 || st.PlanSeconds <= 0 {
		t.Errorf("plan stats = %+v, want 1 plan with moves and wall time", st)
	}
}

func TestMoveJSONRoundTrip(t *testing.T) {
	pr := Program{
		Name: "wire",
		Ops: []Op{
			Load{Kind: particle.ViableCell(), Count: 2},
			Settle{},
			Capture{},
			Gather{Anchor: geom.C(1, 1), Planner: "windowed"},
			Move{Planner: "partitioned", Agents: []MoveTarget{
				{ID: 0, Goal: geom.C(5, 9)},
				{ID: 1, Goal: geom.C(9, 9)},
			}},
		},
	}
	data, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	var back Program
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr, back) {
		t.Fatalf("round trip:\n%#v\nwant\n%#v", back, pr)
	}
	// The wire form uses the documented tags.
	for _, want := range []string{`"op":"move"`, `"planner":"partitioned"`, `"agents":[{"id":0,"col":5,"row":9}`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("wire form missing %s: %s", want, data)
		}
	}
}

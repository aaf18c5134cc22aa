package route

import (
	"testing"

	"biochip/internal/cage"
	"biochip/internal/geom"
)

func singleAgent(start, goal geom.Cell) Problem {
	return Problem{Cols: 20, Rows: 20, Agents: []Agent{{ID: 0, Start: start, Goal: goal}}}
}

func TestProblemValidate(t *testing.T) {
	good := singleAgent(geom.C(1, 1), geom.C(10, 10))
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Problem{
		{Cols: 2, Rows: 2},
		{Cols: maxGridSide + 1, Rows: 20},        // too wide for a packed table key
		singleAgent(geom.C(0, 0), geom.C(5, 5)),  // start in margin
		singleAgent(geom.C(5, 5), geom.C(19, 5)), // goal in margin
		{Cols: 20, Rows: 20, Agents: []Agent{
			{ID: 0, Start: geom.C(1, 1), Goal: geom.C(5, 5)},
			{ID: 0, Start: geom.C(10, 10), Goal: geom.C(12, 12)},
		}}, // dup id
		{Cols: 20, Rows: 20, Agents: []Agent{
			{ID: 0, Start: geom.C(5, 5), Goal: geom.C(10, 10)},
			{ID: 1, Start: geom.C(6, 5), Goal: geom.C(15, 15)},
		}}, // starts too close
		{Cols: 20, Rows: 20, Agents: []Agent{
			{ID: 0, Start: geom.C(1, 1), Goal: geom.C(10, 10)},
			{ID: 1, Start: geom.C(15, 15), Goal: geom.C(11, 10)},
		}}, // goals too close
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func planners() []Planner {
	return []Planner{Greedy{}, Prioritized{}, Prioritized{Order: ShortestFirst},
		Prioritized{Order: DeclaredOrder}, Prioritized{Order: RandomOrder, Seed: 1}}
}

func TestSingleAgentStraightLine(t *testing.T) {
	p := singleAgent(geom.C(1, 1), geom.C(10, 1))
	for _, pl := range planners() {
		plan, err := pl.Plan(p)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if !plan.Solved {
			t.Fatalf("%s: unsolved trivial instance", pl.Name())
		}
		if err := CheckPlan(p, plan); err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if plan.Makespan != 9 {
			t.Errorf("%s: makespan = %d, want 9 (optimal)", pl.Name(), plan.Makespan)
		}
		if plan.TotalMoves != 9 {
			t.Errorf("%s: moves = %d, want 9", pl.Name(), plan.TotalMoves)
		}
	}
}

func TestAgentAlreadyAtGoal(t *testing.T) {
	p := singleAgent(geom.C(5, 5), geom.C(5, 5))
	for _, pl := range planners() {
		plan, err := pl.Plan(p)
		if err != nil || !plan.Solved {
			t.Fatalf("%s: trivial stay failed: %v", pl.Name(), err)
		}
		if plan.Makespan != 0 || plan.TotalMoves != 0 {
			t.Errorf("%s: stay plan should be empty, got makespan=%d moves=%d",
				pl.Name(), plan.Makespan, plan.TotalMoves)
		}
	}
}

func TestTwoAgentsCrossing(t *testing.T) {
	// Mirror swap along one row: they must detour around each other.
	p := Problem{Cols: 24, Rows: 24, Agents: []Agent{
		{ID: 0, Start: geom.C(1, 10), Goal: geom.C(20, 10)},
		{ID: 1, Start: geom.C(20, 10), Goal: geom.C(1, 10)},
	}}
	pr := Prioritized{}
	plan, err := pr.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Solved {
		t.Fatal("prioritized should solve a two-agent crossing")
	}
	if err := CheckPlan(p, plan); err != nil {
		t.Fatal(err)
	}
	// Lower bound: 19 steps each; detour adds a little.
	if plan.Makespan < 19 || plan.Makespan > 40 {
		t.Errorf("makespan = %d outside sane range", plan.Makespan)
	}
}

func TestGreedyLivelocksWhereAStarSolves(t *testing.T) {
	// Head-on corridor conflict in a narrow strip: greedy stalls
	// (reports unsolved), prioritized resolves it. The strip is 7 rows
	// so a separation-2 pass is geometrically possible.
	p := Problem{Cols: 30, Rows: 7, Agents: []Agent{
		{ID: 0, Start: geom.C(1, 3), Goal: geom.C(28, 3)},
		{ID: 1, Start: geom.C(28, 3), Goal: geom.C(1, 3)},
	}}
	gPlan, err := Greedy{}.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	aPlan, err := Prioritized{}.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !aPlan.Solved {
		t.Fatal("prioritized should solve the corridor swap")
	}
	if err := CheckPlan(p, aPlan); err != nil {
		t.Fatal(err)
	}
	if gPlan.Solved {
		// If greedy happens to solve it, it must at least be no better.
		if gPlan.Makespan < aPlan.Makespan {
			t.Errorf("greedy beat A* on a congested instance: %d < %d",
				gPlan.Makespan, aPlan.Makespan)
		}
	}
}

func TestPlansRespectSeparationRandomInstances(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		p, err := RandomProblem(30, 30, 12, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid problem: %v", seed, err)
		}
		for _, pl := range []Planner{Greedy{}, Prioritized{}} {
			plan, err := pl.Plan(p)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, pl.Name(), err)
			}
			if err := CheckPlan(p, plan); err != nil {
				t.Fatalf("seed %d %s: invalid plan: %v", seed, pl.Name(), err)
			}
			if pl.Name() != "greedy" && !plan.Solved {
				t.Errorf("seed %d: prioritized failed a 12-agent instance", seed)
			}
		}
	}
}

func TestPrioritizedBeatsGreedyUnderCongestion(t *testing.T) {
	// Transpose traffic: all agents cross the array. Compare success
	// and makespan over several densities.
	p, err := TransposeProblem(40, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Greedy{}.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Prioritized{}.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Solved {
		t.Fatal("prioritized must solve transpose-8")
	}
	if err := CheckPlan(p, a); err != nil {
		t.Fatal(err)
	}
	if g.Solved && g.Makespan < a.Makespan {
		t.Errorf("greedy (%d) beat prioritized (%d) under congestion",
			g.Makespan, a.Makespan)
	}
}

func TestMovesAtDrivesLayout(t *testing.T) {
	// Replay a plan through cage.Layout.ApplyMoves step by step — the
	// whole point of the router is that its output is executable.
	p, err := RandomProblem(25, 25, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Prioritized{}.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Solved {
		t.Fatal("instance should be solvable")
	}
	l, err := cage.NewLayout(p.Cols, p.Rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range p.Agents {
		if err := l.Place(a.ID, a.Start); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < plan.Makespan; step++ {
		if err := l.ApplyMoves(plan.MovesAt(step)); err != nil {
			t.Fatalf("step %d rejected by layout: %v", step, err)
		}
	}
	for _, a := range p.Agents {
		got, _ := l.Position(a.ID)
		if got != a.Goal {
			t.Errorf("agent %d ended at %v, want %v", a.ID, got, a.Goal)
		}
	}
}

func TestHorizonLimitsPlan(t *testing.T) {
	p := singleAgent(geom.C(1, 1), geom.C(18, 18))
	p.Horizon = 3 // far too small
	plan, err := Prioritized{}.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Solved {
		t.Error("plan cannot be solved within horizon 3")
	}
}

func TestEffectiveHorizonDefault(t *testing.T) {
	p := Problem{Cols: 10, Rows: 20, Agents: make([]Agent, 3)}
	want := 4*(10+20) + 2*3
	if got := p.EffectiveHorizon(); got != want {
		t.Errorf("EffectiveHorizon = %d, want %d", got, want)
	}
	p.Horizon = 7
	if p.EffectiveHorizon() != 7 {
		t.Error("explicit horizon should win")
	}
}

func TestCheckPlanCatchesViolations(t *testing.T) {
	p := Problem{Cols: 20, Rows: 20, Agents: []Agent{
		{ID: 0, Start: geom.C(1, 1), Goal: geom.C(3, 1)},
		{ID: 1, Start: geom.C(10, 10), Goal: geom.C(12, 10)},
	}}
	// Hand-build a plan where agent 0 dives into agent 1.
	bad := &Plan{Solved: true, Paths: map[int]geom.Path{
		0: {geom.C(1, 1), geom.C(2, 1), geom.C(3, 1)},
		1: {geom.C(10, 10), geom.C(11, 10), geom.C(12, 10)},
	}}
	if err := CheckPlan(p, bad); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	collide := &Plan{Solved: true, Paths: map[int]geom.Path{
		0: {geom.C(1, 1), geom.C(2, 1), geom.C(3, 1)},
		1: {geom.C(10, 10), geom.C(10, 10), geom.C(10, 10)},
	}}
	// Same plan but teleport agent 1 near agent 0.
	collide.Paths[1] = geom.Path{geom.C(3, 2), geom.C(3, 2), geom.C(3, 2)}
	p2 := Problem{Cols: 20, Rows: 20, Agents: []Agent{
		{ID: 0, Start: geom.C(1, 1), Goal: geom.C(3, 1)},
		{ID: 1, Start: geom.C(3, 2), Goal: geom.C(3, 2)},
	}}
	if err := CheckPlan(p2, collide); err == nil {
		t.Error("separation violation not caught")
	}
	if err := CheckPlan(p, nil); err == nil {
		t.Error("nil plan should be rejected")
	}
	if err := CheckPlan(p, &Plan{Solved: true, Paths: map[int]geom.Path{}}); err == nil {
		t.Error("missing paths should be rejected")
	}
}

// TestCheckPlanFailureModes exercises each distinct rejection of the
// plan validator: mid-plan separation violations, teleporting steps,
// agents missing from the plan, wrong endpoints and interior escapes.
func TestCheckPlanFailureModes(t *testing.T) {
	p := Problem{Cols: 20, Rows: 20, Agents: []Agent{
		{ID: 0, Start: geom.C(2, 5), Goal: geom.C(8, 5)},
		{ID: 1, Start: geom.C(8, 8), Goal: geom.C(2, 8)},
	}}
	straight := func(from, to geom.Cell) geom.Path {
		path := geom.Path{from}
		for c := from; c != to; {
			d, _ := c.DirTo(geom.C(c.Col+sign(to.Col-c.Col), c.Row+sign(to.Row-c.Row)))
			c = c.Step(d)
			path = append(path, c)
		}
		return path
	}
	good := func() *Plan {
		return &Plan{Solved: true, Paths: map[int]geom.Path{
			0: straight(p.Agents[0].Start, p.Agents[0].Goal),
			1: straight(p.Agents[1].Start, p.Agents[1].Goal),
		}}
	}
	if err := CheckPlan(p, good()); err != nil {
		t.Fatalf("baseline plan rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Plan)
	}{
		{"separation violation mid-plan", func(pl *Plan) {
			// Agent 1 waits, then dips to (8,6) at t=6 — exactly when
			// agent 0 arrives at its (8,5) goal — before heading home.
			pl.Paths[1] = geom.Path{
				geom.C(8, 8), geom.C(8, 8), geom.C(8, 8), geom.C(8, 8), geom.C(8, 8),
				geom.C(8, 7), geom.C(8, 6), geom.C(8, 7), geom.C(8, 8),
				geom.C(7, 8), geom.C(6, 8), geom.C(5, 8), geom.C(4, 8), geom.C(3, 8), geom.C(2, 8),
			}
		}},
		{"teleporting step", func(pl *Plan) {
			pl.Paths[0] = geom.Path{geom.C(2, 5), geom.C(5, 5), geom.C(8, 5)}
		}},
		{"agent missing from the plan", func(pl *Plan) {
			delete(pl.Paths, 1)
		}},
		{"path does not begin at start", func(pl *Plan) {
			pl.Paths[0] = pl.Paths[0][1:]
		}},
		{"empty path", func(pl *Plan) {
			pl.Paths[0] = geom.Path{}
		}},
		{"solved plan missing its goal", func(pl *Plan) {
			pl.Paths[0] = pl.Paths[0][:len(pl.Paths[0])-1]
		}},
		{"path leaves the interior", func(pl *Plan) {
			pl.Paths[0] = geom.Path{geom.C(2, 5), geom.C(2, 4), geom.C(2, 3),
				geom.C(2, 2), geom.C(2, 1), geom.C(2, 0)}
			pl.Solved = false // endpoint check must not mask the escape
		}},
	}
	for _, tc := range cases {
		pl := good()
		tc.mutate(pl)
		if err := CheckPlan(p, pl); err == nil {
			t.Errorf("%s: not caught", tc.name)
		}
	}
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

func TestProblemRegionRestrictsInterior(t *testing.T) {
	p := Problem{Cols: 40, Rows: 40,
		Agents: []Agent{{ID: 0, Start: geom.C(2, 2), Goal: geom.C(8, 8)}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Region = geom.NewRect(geom.C(1, 1), geom.C(6, 6))
	if err := p.Validate(); err == nil {
		t.Error("goal outside Region must fail validation")
	}
	p.Region = geom.NewRect(geom.C(1, 1), geom.C(12, 12))
	if err := p.Validate(); err != nil {
		t.Fatalf("agent inside Region rejected: %v", err)
	}
	plan, err := (Prioritized{}).Plan(p)
	if err != nil || !plan.Solved {
		t.Fatalf("confined plan failed: %v", err)
	}
	for _, c := range plan.Paths[0] {
		if !p.Interior().Contains(c) {
			t.Fatalf("confined path escapes region at %v", c)
		}
	}
}

func TestWorkloadGenerators(t *testing.T) {
	p, err := RandomProblem(40, 40, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("random problem invalid: %v", err)
	}
	c, err := CompactionProblem(40, 40, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("compaction problem invalid: %v", err)
	}
	tr, err := TransposeProblem(40, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("transpose problem invalid: %v", err)
	}
	lp, err := LocalProblem(40, 40, 20, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := lp.Validate(); err != nil {
		t.Fatalf("local problem invalid: %v", err)
	}
	for _, a := range lp.Agents {
		if d := a.Start.Chebyshev(a.Goal); d > 2*5 {
			t.Errorf("agent %d moved %d cells, beyond the local regime", a.ID, d)
		}
	}
	if _, err := LocalProblem(40, 40, 10, 0, 1); err == nil {
		t.Error("zero radius should error")
	}
	if _, err := TransposeProblem(10, 10, 50); err == nil {
		t.Error("oversized transpose should error")
	}
	if _, err := RandomProblem(10, 10, 500, 1); err == nil {
		t.Error("overfull random problem should error")
	}
}

func TestCompactionSolvable(t *testing.T) {
	p, err := CompactionProblem(30, 30, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Prioritized{}.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Solved {
		t.Fatal("compaction-20 should be solvable by prioritized")
	}
	if err := CheckPlan(p, plan); err != nil {
		t.Fatal(err)
	}
}

func TestPlannerNames(t *testing.T) {
	names := map[string]bool{}
	for _, pl := range planners() {
		if pl.Name() == "" {
			t.Error("empty planner name")
		}
		names[pl.Name()] = true
	}
	if len(names) != 5 {
		t.Errorf("planner names not unique: %v", names)
	}
}

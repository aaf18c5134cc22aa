package route

import (
	"errors"
	"testing"

	"biochip/internal/geom"
)

func TestWindowedSingleAgent(t *testing.T) {
	p := singleAgent(geom.C(1, 1), geom.C(15, 1))
	plan, err := (Windowed{}).Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Solved {
		t.Fatal("windowed failed a trivial straight line")
	}
	if err := CheckPlan(p, plan); err != nil {
		t.Fatal(err)
	}
	if plan.Makespan != 14 {
		t.Errorf("makespan = %d, want 14 (optimal)", plan.Makespan)
	}
}

func TestWindowedAtGoalAlready(t *testing.T) {
	p := singleAgent(geom.C(5, 5), geom.C(5, 5))
	plan, err := (Windowed{}).Plan(p)
	if err != nil || !plan.Solved {
		t.Fatal("trivial stay failed")
	}
	if plan.Makespan != 0 {
		t.Errorf("makespan = %d", plan.Makespan)
	}
}

func TestWindowedRandomInstances(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		p, err := RandomProblem(30, 30, 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := (Windowed{}).Plan(p)
		if err != nil && !errors.As(err, new(*RoundsExhaustedError)) {
			t.Fatal(err)
		}
		if !plan.Solved {
			// Windowed is incomplete by design; but it must never emit
			// an invalid plan when it does solve, and giving up must be
			// reported through the typed error.
			if err == nil {
				t.Fatalf("seed %d: unsolved plan without RoundsExhaustedError", seed)
			}
			t.Logf("seed %d unsolved (windowed is incomplete)", seed)
			continue
		}
		if err := CheckPlan(p, plan); err != nil {
			t.Fatalf("seed %d: invalid windowed plan: %v", seed, err)
		}
	}
}

func TestWindowedSolvesMostRandomInstances(t *testing.T) {
	solved := 0
	const total = 10
	for seed := uint64(10); seed < 10+total; seed++ {
		p, err := RandomProblem(40, 40, 12, seed)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := (Windowed{}).Plan(p)
		if err != nil && !errors.As(err, new(*RoundsExhaustedError)) {
			t.Fatal(err)
		}
		if plan.Solved {
			if err := CheckPlan(p, plan); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			solved++
		}
	}
	if solved < total*7/10 {
		t.Errorf("windowed solved only %d/%d moderate instances", solved, total)
	}
}

func TestWindowedRespectsSmallWindow(t *testing.T) {
	p := singleAgent(geom.C(1, 1), geom.C(18, 18))
	plan, err := (Windowed{Window: 4}).Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Solved {
		t.Fatal("single agent must solve at any window")
	}
	if err := CheckPlan(p, plan); err != nil {
		t.Fatal(err)
	}
}

func TestWindowedCrossingPair(t *testing.T) {
	p := Problem{Cols: 24, Rows: 24, Agents: []Agent{
		{ID: 0, Start: geom.C(1, 10), Goal: geom.C(20, 10)},
		{ID: 1, Start: geom.C(20, 12), Goal: geom.C(1, 12)},
	}}
	plan, err := (Windowed{}).Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Solved {
		t.Fatal("windowed should pass two offset crossers")
	}
	if err := CheckPlan(p, plan); err != nil {
		t.Fatal(err)
	}
}

func TestWindowedName(t *testing.T) {
	if (Windowed{}).Name() != "windowed" {
		t.Error("name")
	}
}

func TestWindowedMaxRoundsBounds(t *testing.T) {
	// With one round of window 4, a distant goal cannot be reached:
	// must report unsolved via the typed error, not loop.
	p := singleAgent(geom.C(1, 1), geom.C(30, 30))
	p.Cols, p.Rows = 40, 40
	plan, err := (Windowed{Window: 4, MaxRounds: 1}).Plan(p)
	var re *RoundsExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("want RoundsExhaustedError, got %v", err)
	}
	if re.Rounds != 1 || re.Stalled || re.Remaining == 0 {
		t.Errorf("error fields = %+v, want 1 round, not stalled, distance left", re)
	}
	if plan == nil || plan.Solved {
		t.Error("cannot reach a 58-step goal in one 4-step round")
	}
	if len(plan.Paths[0]) == 0 || plan.Paths[0][0] != p.Agents[0].Start {
		t.Error("partial plan must still carry the agent's prefix path")
	}
}

func TestWindowedOscillationReturnsTypedError(t *testing.T) {
	// A head-on corridor swap in a 5-row strip: with a tiny window the
	// planner cannot commit to a full pass and oscillates; the stall
	// bound must trip with the typed error rather than burning the whole
	// round budget.
	p := Problem{Cols: 30, Rows: 5, Agents: []Agent{
		{ID: 0, Start: geom.C(1, 2), Goal: geom.C(28, 2)},
		{ID: 1, Start: geom.C(28, 2), Goal: geom.C(1, 2)},
	}}
	plan, err := (Windowed{Window: 2, MaxRounds: 400}).Plan(p)
	if plan.Solved {
		return // solved is acceptable too; the bound is what we test below
	}
	var re *RoundsExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("unsolved windowed plan must carry RoundsExhaustedError, got %v", err)
	}
	if !re.Stalled && re.Rounds < 400 {
		t.Errorf("gave up after %d rounds without the oscillation bound tripping", re.Rounds)
	}
	if re.Error() == "" {
		t.Error("empty error text")
	}
}

// TestWindowedNeverEmitsInvalidPlan pins a blocked-round regression:
// when even waiting in place collided with a higher-priority agent's
// window, the planner used to commit the colliding wait anyway and could
// report the result solved ("separation violated at t=81 between 12 and
// 25" on this instance). Every plan it returns, solved or partial, must
// pass CheckPlan.
func TestWindowedNeverEmitsInvalidPlan(t *testing.T) {
	p, err := RandomProblem(20, 20, 32, 43)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (Windowed{}).Plan(p)
	if err != nil && !errors.As(err, new(*RoundsExhaustedError)) {
		t.Fatal(err)
	}
	if plan.Solved == (err != nil) {
		t.Fatalf("solved=%v with error %v", plan.Solved, err)
	}
	if err := CheckPlan(p, plan); err != nil {
		t.Fatal(err)
	}
}

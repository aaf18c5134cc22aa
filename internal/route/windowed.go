package route

import (
	"fmt"

	"biochip/internal/geom"
)

// Windowed is a WHCA*-style planner: agents repeatedly plan cooperative
// W-step path prefixes toward their goals, execute them, and replan.
// Latency and memory per round are bounded by the window, which is what
// an on-line controller embedded with the chip would run; the price is
// lost completeness on hard instances (it can oscillate where the
// full-horizon planner commits).
type Windowed struct {
	// Window is the planning depth per round; 0 selects 16.
	Window int
	// MaxRounds bounds total rounds; 0 selects a generous default.
	MaxRounds int
}

// RoundsExhaustedError is returned by Windowed.Plan alongside the
// partial plan when the planner gives up before every agent arrives —
// MaxRounds rounds executed, the oscillation bound tripped (several
// consecutive rounds with no net progress), or no priority order let
// every agent plan a conflict-free window. It is a typed error so
// callers can distinguish "incomplete planner gave up" from "instance
// rejected".
type RoundsExhaustedError struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Stalled is true when the oscillation bound (no net progress over
	// consecutive rounds) tripped before MaxRounds did.
	Stalled bool
	// Blocked is true when the next round could not be planned: under
	// every priority order tried, some agent collided with an earlier
	// agent's window even by waiting in place.
	Blocked bool
	// Remaining is the total Manhattan distance still to cover.
	Remaining int
}

// Error implements error.
func (e *RoundsExhaustedError) Error() string {
	why := "round budget exhausted"
	switch {
	case e.Blocked:
		why = "found no conflict-free round"
	case e.Stalled:
		why = "oscillation bound tripped"
	}
	return fmt.Sprintf("route: windowed planner %s after %d rounds (%d cells of distance remaining)",
		why, e.Rounds, e.Remaining)
}

// Name implements Planner.
func (w Windowed) Name() string { return "windowed" }

func (w Windowed) window() int {
	if w.Window > 0 {
		return w.Window
	}
	return 16
}

// Plan implements Planner. When it gives up before every agent arrives,
// it returns the partial plan (Solved=false) together with a
// *RoundsExhaustedError. Every round it commits is conflict-free, so the
// plan passes CheckPlan whether solved or partial.
func (w Windowed) Plan(p Problem) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	win := w.window()
	maxRounds := w.MaxRounds
	if maxRounds <= 0 {
		maxRounds = (4*(p.Cols+p.Rows) + 2*len(p.Agents)) / win * 4
		if maxRounds < 8 {
			maxRounds = 8
		}
	}
	interior := p.Interior()

	cur := make(map[int]geom.Cell, len(p.Agents))
	goals := make(map[int]geom.Cell, len(p.Agents))
	paths := make(map[int]geom.Path, len(p.Agents))
	for _, a := range p.Agents {
		cur[a.ID] = a.Start
		goals[a.ID] = a.Goal
		paths[a.ID] = geom.Path{a.Start}
	}
	totalDist := func() int {
		d := 0
		for id, c := range cur {
			d += c.Manhattan(goals[id])
		}
		return d
	}
	s := &searcher{interior: interior}
	stalls := 0
	stalled, blocked := false, false
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		if totalDist() == 0 {
			break
		}
		// Priority: farthest-from-goal first, re-evaluated per round.
		order := make([]Agent, len(p.Agents))
		copy(order, p.Agents)
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				di := cur[order[i].ID].Manhattan(goals[order[i].ID])
				dj := cur[order[j].ID].Manhattan(goals[order[j].ID])
				if dj > di {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		round := planRound(s, order, cur, goals, win)
		if round == nil {
			blocked = true
			break
		}
		before := totalDist()
		for _, a := range order {
			wp := round[a.ID]
			paths[a.ID] = append(paths[a.ID], wp[1:]...)
			cur[a.ID] = wp[len(wp)-1]
		}
		if totalDist() >= before {
			stalls++
			if stalls >= 3 {
				stalled = true
				rounds++ // this round ran; the loop post-statement won't count it
				break
			}
		} else {
			stalls = 0
		}
	}
	pl := &Plan{Paths: paths, Solved: totalDist() == 0, Planner: w.Name()}
	finalize(pl, p)
	if !pl.Solved {
		return pl, &RoundsExhaustedError{Rounds: rounds, Stalled: stalled, Blocked: blocked, Remaining: totalDist()}
	}
	return pl, nil
}

// planRound plans one window for every agent, in priority order, each
// against the windows of the agents before it. An agent with no
// conflict-free window (even waiting in place collides with an earlier
// agent) is promoted to the front and the round is replanned, as
// Prioritized restarts; it returns nil when maxAttempts orders all leave
// some agent blocked.
func planRound(s *searcher, order []Agent, cur, goals map[int]geom.Cell, win int) map[int]geom.Path {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		s.res.reset()
		s.soft.reset()
		for _, a := range order {
			s.addSoft(cur[a.ID], 1)
		}
		round := make(map[int]geom.Path, len(order))
		var blocked []Agent
		for _, a := range order {
			from := cur[a.ID]
			s.addSoft(from, -1)
			wp := s.windowAstar(from, goals[a.ID], win)
			if wp == nil {
				blocked = append(blocked, a)
				s.addSoft(from, 1)
				continue
			}
			s.res.commit(wp)
			round[a.ID] = wp
		}
		if len(blocked) == 0 {
			return round
		}
		order = promote(blocked, order)
	}
	return nil
}

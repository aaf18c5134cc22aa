package route

import "biochip/internal/geom"

// pendingPenalty is the extra cost per step spent within separation of
// an unplanned agent's start cell. High enough that paths detour around
// waiting agents when a detour exists, low enough that crossing is still
// possible when geometry forces it.
const pendingPenalty = 8

// maxExpansionsPerAgent bounds one agent's A* search; exceeding it is
// treated as unroutable (and triggers the restart-with-promotion logic).
const maxExpansionsPerAgent = 400000

// searcher is the space-time A* core shared by Prioritized, Windowed and
// Refine. One searcher serves every agent and restart of a Plan call:
// its reservation table, soft-obstacle counts, closed set, node arena
// and open list are reset between searches but keep their storage, so a
// search allocates only the path it returns (plus table growth while
// the tables reach their working size). Nothing is retained across Plan
// calls.
type searcher struct {
	interior geom.Rect
	res      reservations
	// soft counts, per cell, the unplanned agents whose start lies
	// within separation of it; a step onto a cell with a positive count
	// costs pendingPenalty extra.
	soft table
	// closed holds the stKey of every expanded state.
	closed table
	nodes  []node
	// open is a binary min-heap over nodes.
	open []openEntry
}

// node is one space-time search state in the arena: the cell, the time
// step, the path cost g (time steps plus soft penalties) and the arena
// index of its predecessor, −1 at the start.
type node struct {
	col, row int32
	t, g     int32
	parent   int32
}

func (n *node) cell() geom.Cell { return geom.C(int(n.col), int(n.row)) }

// openEntry is one open-list element: an arena index and its priority.
// prio orders by f = g + h ascending, then by g descending (deeper
// nodes first), as one unsigned comparison.
type openEntry struct {
	prio uint64
	node int32
}

func priority(f, g int32) uint64 {
	return uint64(uint32(f))<<32 | uint64(^uint32(g))
}

// addSoft adds delta to the soft-obstacle count of every cell within
// separation of c: +1 when an agent starting at c becomes pending, −1
// once it is planned.
func (s *searcher) addSoft(c geom.Cell, delta int32) {
	for dr := -reach; dr <= reach; dr++ {
		for dc := -reach; dc <= reach; dc++ {
			n, _ := s.soft.upsert(cellKey(geom.C(c.Col+dc, c.Row+dr)))
			*n += delta
		}
	}
}

// penalty is the soft-obstacle cost of stepping onto c.
func (s *searcher) penalty(c geom.Cell) int32 {
	if n, ok := s.soft.get(cellKey(c)); ok && n > 0 {
		return pendingPenalty
	}
	return 0
}

// astar plans one agent from time 0 to a conflict-free park at its goal
// within the horizon, against the committed reservations. It returns
// nil when no such path exists or the search exceeds
// maxExpansionsPerAgent.
func (s *searcher) astar(a Agent, horizon int) geom.Path {
	if s.res.conflict(a.Start, 0) {
		return nil
	}
	if s.res.parkedNearGoal(a.Goal) {
		// An earlier agent parks within separation of this goal: no
		// arrival time can ever be conflict-free.
		return nil
	}
	// Earliest time parking at the goal becomes conflict-free: one past
	// the last time any committed path passes near it.
	tFree := s.res.freeFrom(a.Goal)
	if tFree > horizon {
		return nil
	}
	return s.search(a.Start, a.Goal, tFree, horizon, 0)
}

// windowAstar plans exactly win steps from `from` toward goal. Every
// depth-win state is a terminal whose merit is its remaining distance,
// and resting at the goal is free. It returns a path of length win+1,
// or nil when even waiting in place conflicts.
func (s *searcher) windowAstar(from, goal geom.Cell, win int) geom.Path {
	return s.search(from, goal, 0, win, win)
}

// search is the one space-time A* loop. With win == 0 a state is
// terminal when it reaches goal at or after tFree; with win > 0 every
// state at t == win is terminal and resting at the goal costs nothing.
// The heuristic is the remaining distance, but never less than the wait
// until tFree: that collapses the "loiter until the goal is free"
// plateau that otherwise explodes the search.
func (s *searcher) search(start, goal geom.Cell, tFree, horizon, win int) geom.Path {
	s.closed.reset()
	s.nodes = s.nodes[:0]
	s.open = s.open[:0]
	h := func(c geom.Cell, t int) int32 {
		d := c.Manhattan(goal)
		if wait := tFree - t; wait > d {
			return int32(wait)
		}
		return int32(d)
	}
	s.push(node{col: int32(start.Col), row: int32(start.Row), parent: -1}, h(start, 0))
	expansions := 0
	for len(s.open) > 0 {
		ni := s.pop()
		n := s.nodes[ni]
		t, cell := int(n.t), n.cell()
		if _, added := s.closed.upsert(stKey(t, cell)); !added {
			continue
		}
		if expansions++; expansions > maxExpansionsPerAgent {
			return nil
		}
		if win > 0 {
			if t == win {
				return s.reconstruct(ni)
			}
		} else if cell == goal && t >= tFree {
			// astar ruled out a park near the goal, and tFree is past the
			// last reservation near it: parking here stays conflict-free.
			return s.reconstruct(ni)
		}
		if t >= horizon {
			continue
		}
		for _, d := range [5]geom.Dir{geom.Stay, geom.North, geom.South, geom.East, geom.West} {
			next := cell.Step(d)
			if !s.interior.Contains(next) {
				continue
			}
			if s.closed.has(stKey(t+1, next)) {
				continue
			}
			if s.res.conflict(next, t+1) {
				continue
			}
			step := int32(1)
			if win > 0 && next == goal && cell == goal {
				step = 0
			}
			g := n.g + step + s.penalty(next)
			s.push(node{col: int32(next.Col), row: int32(next.Row), t: n.t + 1, g: g, parent: ni}, g+h(next, t+1))
		}
	}
	return nil
}

// reconstruct returns the path from the start to arena node ni.
func (s *searcher) reconstruct(ni int32) geom.Path {
	out := make(geom.Path, s.nodes[ni].t+1)
	for i := ni; i >= 0; i = s.nodes[i].parent {
		out[s.nodes[i].t] = s.nodes[i].cell()
	}
	return out
}

// push adds n to the arena and, with f = g + h, to the open list. The
// sift is container/heap's up, step for step, so nodes that tie pop in
// the same order they always have: plans depend on that order.
func (s *searcher) push(n node, f int32) {
	x := openEntry{prio: priority(f, n.g), node: int32(len(s.nodes))}
	s.nodes = append(s.nodes, n)
	s.open = append(s.open, x)
	h := s.open
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if x.prio >= h[i].prio {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
}

// pop removes the open list's minimum and returns its arena index. It
// moves the last element to the root and sifts it down exactly as
// container/heap's Pop and down do.
func (s *searcher) pop() int32 {
	h := s.open
	n := len(h) - 1
	top, x := h[0].node, h[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].prio < h[j].prio {
			j = j2
		}
		if h[j].prio >= x.prio {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
	s.open = h[:n]
	return top
}

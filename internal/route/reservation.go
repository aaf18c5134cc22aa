package route

import (
	"biochip/internal/cage"
	"biochip/internal/geom"
)

// reach is the Chebyshev radius of a cage's separation footprint: a cage
// centred at c conflicts with any cage centred within reach of c.
const reach = cage.MinSeparation - 1

// maxGridSide bounds a problem's columns and rows so that a cell packs
// into 16 bits of a table key (see cellKey).
const maxGridSide = 1<<16 - 2*reach - 1

// cellKey packs a cell into the low 32 bits of a table key. Footprint
// cells may lie up to reach outside the grid, so both coordinates are
// offset by reach.
func cellKey(c geom.Cell) uint64 {
	return uint64(uint32(c.Row+reach))<<16 | uint64(uint32(c.Col+reach))
}

// stKey packs a space-time state (t, cell) into one table key.
func stKey(t int, c geom.Cell) uint64 {
	return uint64(uint32(t))<<32 | cellKey(c)
}

// reservations is the WHCA* reservation table (Silver 2005,
// "Cooperative Pathfinding") every space-time planner in this package
// shares: Prioritized, Windowed and Refine. commit expands each reserved
// position's separation footprint once, so that a conflict test during
// search is a single lookup. For park-at-goal feasibility it also keeps,
// per cell, the last time any reservation comes within separation of it
// (lastNear) and the earliest time a parked agent permanently blocks it
// (parkedNear).
type reservations struct {
	// near holds stKey(t, c) for every cell c within separation of a
	// position some committed path occupies at time t.
	near table
	// lastNear[c] is the latest t with (t, c) in near.
	lastNear table
	// parkedNear[c] is the earliest park time within separation of c;
	// from then on c is permanently blocked.
	parkedNear table
}

// reset drops every reservation, keeping the tables' storage.
func (r *reservations) reset() {
	r.near.reset()
	r.lastNear.reset()
	r.parkedNear.reset()
}

// commit reserves a full path, including the permanent park at its end.
func (r *reservations) commit(path geom.Path) {
	for t, c := range path {
		for dr := -reach; dr <= reach; dr++ {
			for dc := -reach; dc <= reach; dc++ {
				q := geom.C(c.Col+dc, c.Row+dr)
				r.near.upsert(stKey(t, q))
				if last, added := r.lastNear.upsert(cellKey(q)); added || int32(t) > *last {
					*last = int32(t)
				}
			}
		}
	}
	end := path[len(path)-1]
	parkTime := int32(len(path) - 1)
	for dr := -reach; dr <= reach; dr++ {
		for dc := -reach; dc <= reach; dc++ {
			q := geom.C(end.Col+dc, end.Row+dr)
			if pt, added := r.parkedNear.upsert(cellKey(q)); added || parkTime < *pt {
				*pt = parkTime
			}
		}
	}
}

// conflict reports whether a cage centre at c at time t violates
// separation against committed reservations.
func (r *reservations) conflict(c geom.Cell, t int) bool {
	if pt, ok := r.parkedNear.get(cellKey(c)); ok && t >= int(pt) {
		return true
	}
	return r.near.has(stKey(t, c))
}

// parkedNearGoal reports whether an agent parks within separation of
// goal, so that no arrival time there can ever be conflict-free.
func (r *reservations) parkedNearGoal(goal geom.Cell) bool {
	return r.parkedNear.has(cellKey(goal))
}

// freeFrom returns the earliest time from which no committed path comes
// within separation of c: one past the last reservation near it.
func (r *reservations) freeFrom(c geom.Cell) int {
	if last, ok := r.lastNear.get(cellKey(c)); ok {
		return int(last) + 1
	}
	return 0
}

package route

// table is an open-addressing hash map from packed 64-bit keys to int32
// values: the flat store behind the space-time search's closed set,
// reservations and soft obstacles. Lookups probe linearly from a
// multiplicative hash; a table is at most half full, so every probe
// sequence ends at a free slot.
//
// Each slot carries the generation it was written in, and a slot from
// an older generation counts as free. reset therefore empties the table
// in O(1) and keeps its storage, so one table serves every agent and
// restart of a Plan call. Capacity only grows, doubling when the table
// reaches half full, so it tracks the most entries any one use stored:
// memory scales with search work, not with grid area × horizon.
type table struct {
	slots []slot
	gen   uint32
	n     int
	shift uint // 64 − log2(len(slots))
}

type slot struct {
	key uint64
	gen uint32
	val int32
}

const (
	// hashMul is 2^64 / φ (Fibonacci hashing): it spreads the packed
	// (t, row, col) keys, whose low bits vary little, over the top bits
	// the probe start is taken from.
	hashMul      = 0x9E3779B97F4A7C15
	minTableBits = 4
)

// reset empties the table, keeping its storage.
func (m *table) reset() {
	m.n = 0
	m.gen++
	if m.gen == 0 {
		// The stamp wrapped: stale slots could alias the new
		// generation, so clear them once.
		clear(m.slots)
		m.gen = 1
	}
}

// get returns the value stored under key.
func (m *table) get(key uint64) (int32, bool) {
	if m.n == 0 {
		return 0, false
	}
	mask := len(m.slots) - 1
	for i := int(key * hashMul >> m.shift); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.gen != m.gen {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
	}
}

// has reports whether key is stored.
func (m *table) has(key uint64) bool {
	_, ok := m.get(key)
	return ok
}

// upsert returns the value slot for key, inserting it with value 0 when
// absent; added reports the insertion. The pointer is valid until the
// next upsert.
func (m *table) upsert(key uint64) (val *int32, added bool) {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := len(m.slots) - 1
	for i := int(key * hashMul >> m.shift); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.gen != m.gen {
			*s = slot{key: key, gen: m.gen}
			m.n++
			return &s.val, true
		}
		if s.key == key {
			return &s.val, false
		}
	}
}

// grow doubles the capacity and re-inserts the live entries.
func (m *table) grow() {
	bits := uint(minTableBits)
	if len(m.slots) > 0 {
		bits = 64 - m.shift + 1
	}
	old := m.slots
	m.slots = make([]slot, 1<<bits)
	m.shift = 64 - bits
	live := m.gen
	m.gen = 1
	mask := len(m.slots) - 1
	for _, s := range old {
		if s.gen != live {
			continue
		}
		i := int(s.key * hashMul >> m.shift)
		for m.slots[i].gen == m.gen {
			i = (i + 1) & mask
		}
		m.slots[i] = slot{key: s.key, gen: m.gen, val: s.val}
	}
}

package stream

// Mirror is the proxy-side adapter of a Ring: a federation gateway (or
// any other relay) replicating an upstream job's event stream feeds the
// events it receives into a Mirror, and local subscribers get the full
// Ring contract — bounded replay window, Subscribe/Next, Last-Event-ID
// resume — against the mirrored stream. The critical difference from
// Publish is that Feed ingests events *verbatim*: the upstream ring
// already assigned sequence numbers and wall stamps, and re-stamping
// either would break resume cursors (and the bit-identity of the
// relayed stream). Out-of-order feeds are normalized: duplicates from
// an overlapping reconnect replay are dropped, and a jump past the next
// expected sequence number — which only happens when the upstream
// itself reported a gap — advances the window so local subscribers see
// a gap event covering exactly the range the upstream lost.
type Mirror struct {
	ring *Ring
}

// NewMirror builds a mirror retaining at most capacity events (0 or
// negative selects DefaultCapacity).
func NewMirror(capacity int) *Mirror {
	return &Mirror{ring: NewRing(capacity)}
}

// Feed ingests one upstream event, preserving its sequence number and
// wall stamp. Events at the next expected sequence number are stored;
// already-seen sequence numbers (an overlapping resume replay) are
// dropped; an upstream gap event — or an implicit jump past the
// expected number — advances the window so subscribers positioned
// before it receive a locally synthesized gap for exactly the
// upstream-reported range, per the proxying rule that a relay never
// invents gaps of its own. Synthetic upstream events other than gaps
// (shutdown, Seq 0) are ignored: they describe the upstream connection,
// not the job. Feeding a closed mirror is a no-op.
func (m *Mirror) Feed(ev Event) {
	r := m.ring
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if ev.Type == Gap && ev.Gap != nil {
		r.advanceLocked(ev.Gap.To + 1)
		return
	}
	if ev.Seq == 0 || ev.Seq < r.next {
		return
	}
	if ev.Seq > r.next {
		// The upstream skipped ahead without an explicit gap event (a
		// resume that lost the gap frame); treat the jump as the gap.
		r.advanceLocked(ev.Seq)
	}
	r.appendLocked(ev)
}

// advanceLocked moves the window start and the next expected sequence
// number forward to seq, dropping every stored event. Retained events
// before seq leave the window (the backfill tier recovers them, as on
// any overflow), so subscribers whose cursor lies before seq observe a
// gap event for exactly the subrange of [cursor+1, seq-1] that no
// backfill can produce. Caller holds r.mu.
func (r *Ring) advanceLocked(seq uint64) {
	if seq <= r.next {
		return
	}
	clear(r.evs)
	r.evs = r.evs[:0]
	r.base, r.first, r.next = seq, seq, seq
	r.notifyLocked()
}

// SetBackfill installs (or, with nil, removes) the recovery source for
// events that left the mirror window — for a relay, typically a bounded
// re-fetch from the upstream daemon. fn is called under the ring lock
// with an inclusive [from, to] range and must return whatever
// contiguous suffix of that range it still holds, in ascending sequence
// order and in a slice of its own; subscribers then see a gap only for
// the prefix nothing can recover. Already-attached subscribers consult
// it on their next out-of-window read.
func (m *Mirror) SetBackfill(fn func(from, to uint64) []Event) {
	m.ring.mu.Lock()
	m.ring.backfill = fn
	m.ring.mu.Unlock()
}

// Subscribe attaches a subscriber resuming after the given sequence
// number, exactly as Ring.Subscribe.
func (m *Mirror) Subscribe(after uint64) *Sub { return m.ring.Subscribe(after) }

// Last returns the highest sequence number fed so far (0 when nothing
// was fed) — the resume cursor a relay reconnects with.
func (m *Mirror) Last() uint64 { return m.ring.Last() }

// Close marks the mirrored stream complete: subscribers drain the
// retained events and see end-of-stream. Idempotent.
func (m *Mirror) Close() { m.ring.Close() }

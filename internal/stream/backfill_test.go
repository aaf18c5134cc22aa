package stream

import (
	"reflect"
	"sync"
	"testing"
)

// rangeOf is a backfill serving a recorded stream whose sequence
// numbers run 1..len(evs) — the shape of a durable log's copy, which
// decodes a fresh slice per call.
func rangeOf(evs []Event) func(from, to uint64) []Event {
	return func(from, to uint64) []Event {
		if from < 1 {
			from = 1
		}
		if to > uint64(len(evs)) {
			to = uint64(len(evs))
		}
		if from > to {
			return nil
		}
		return append([]Event(nil), evs[from-1:to]...)
	}
}

// TestHeldRingNoGap is the held-ring regression test: a subscriber
// attaching after a 4-event window would have dropped the head replays
// the complete stream — no gap event, every sequence number — because
// the held ring keeps the whole stream.
func TestHeldRingNoGap(t *testing.T) {
	r := NewRing(4)
	r.now = func() float64 { return 0 }
	r.Hold()
	publishN(r, 20)
	r.Close()

	evs := drain(r.Subscribe(0))
	if len(evs) != 20 {
		t.Fatalf("got %d events, want 20", len(evs))
	}
	for i, ev := range evs {
		if ev.Type == Gap {
			t.Fatalf("event %d is a gap on a held ring", i)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	// Resume from the middle of the stream.
	mid := drain(r.Subscribe(7))
	if len(mid) != 13 || mid[0].Seq != 8 {
		t.Fatalf("resume after 7: %d events, first seq %d", len(mid), mid[0].Seq)
	}
}

// TestPartialBackfillGapOnlyUnrecoverable pins the consistency fix: a
// backfill that lost its own head (here: only seqs >= 5 survive) must
// produce a gap naming exactly the unrecoverable range, then the
// recovered run, then the ring window — never a gap spanning data the
// log still holds.
func TestPartialBackfillGapOnlyUnrecoverable(t *testing.T) {
	r := NewRing(4)
	r.now = func() float64 { return 0 }
	r.Hold()
	publishN(r, 20)
	r.Close()
	log := rangeOf(r.Events())
	r.Release(func(from, to uint64) []Event {
		if from < 5 {
			from = 5
		}
		return log(from, to)
	})

	evs := drain(r.Subscribe(0))
	if len(evs) != 17 {
		t.Fatalf("got %d events, want gap + 16", len(evs))
	}
	if evs[0].Type != Gap || evs[0].Gap.From != 1 || evs[0].Gap.To != 4 {
		t.Fatalf("first event %+v, want gap [1,4]", evs[0])
	}
	for i, ev := range evs[1:] {
		if ev.Seq != uint64(i+5) {
			t.Fatalf("recovered event %d has seq %d, want %d", i, ev.Seq, i+5)
		}
	}
}

// TestNoBackfillKeepsGapSemantics pins the pre-persistence behavior the
// default (non-durable) service still runs on: without a backfill the
// whole lost range is one gap, exactly as before.
func TestNoBackfillKeepsGapSemantics(t *testing.T) {
	r := NewRing(4)
	r.now = func() float64 { return 0 }
	publishN(r, 20)
	r.Close()
	evs := drain(r.Subscribe(0))
	if len(evs) != 5 {
		t.Fatalf("got %d events, want gap + 4 retained", len(evs))
	}
	if evs[0].Type != Gap || evs[0].Gap.From != 1 || evs[0].Gap.To != 16 {
		t.Fatalf("gap %+v, want [1,16]", evs[0])
	}
}

// TestRecoveredRing rebuilds a finished job's ring from a fake log: the
// window is empty, the stream is closed, and subscribers replay wholly
// through the backfill with live-identical resume semantics.
func TestRecoveredRing(t *testing.T) {
	src := NewRing(64)
	src.now = func() float64 { return 42 }
	src.Hold()
	publishN(src, 9)
	src.Close()
	want := drain(src.Subscribe(0))

	r := RecoveredRing(9, rangeOf(src.Events()))
	if got := r.Last(); got != 9 {
		t.Fatalf("Last() = %d, want 9", got)
	}
	got := drain(r.Subscribe(0))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered replay differs:\n got %+v\nwant %+v", got, want)
	}
	// Mid-stream resume, as an SSE reconnect would do it.
	tail := drain(r.Subscribe(6))
	if len(tail) != 3 || tail[0].Seq != 7 {
		t.Fatalf("resume after 6: %d events, first seq %d", len(tail), tail[0].Seq)
	}
	// Resume at the end: nothing left, clean end of stream.
	if rest := drain(r.Subscribe(9)); len(rest) != 0 {
		t.Fatalf("resume after 9 returned %d events", len(rest))
	}
}

// TestHeldEventsAreStamped pins the Events contract: a held ring
// returns its events after sequencing and stamping, so its copy is
// exactly what subscribers saw and what a durable log should persist.
func TestHeldEventsAreStamped(t *testing.T) {
	r := NewRing(2)
	r.now = func() float64 { return 3.5 }
	r.Hold()
	publishN(r, 5)
	r.Close()
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("held ring has %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) || ev.Wall != 3.5 {
			t.Fatalf("held event %d: seq %d wall %v", i, ev.Seq, ev.Wall)
		}
	}
	r.Release(nil) // releasing must be safe on a closed ring
	if got := r.Events(); len(got) != 2 || got[0].Seq != 4 {
		t.Fatalf("after Release: %d events, want the 2-event window [4,5]", len(got))
	}
}

// TestReleaseTrimsHeldStream covers a subscriber attached before
// Release whose cursor sits before the trimmed prefix: with a backfill
// installed it receives the backfill's events and no gap; with
// Release(nil) it receives exactly one gap naming the trimmed prefix,
// then the window.
func TestReleaseTrimsHeldStream(t *testing.T) {
	for _, withLog := range []bool{true, false} {
		r := NewRing(4)
		r.now = func() float64 { return 0 }
		r.Hold()
		publishN(r, 20)
		r.Close()
		sub := r.Subscribe(0)
		full := r.Events()
		var backfill func(from, to uint64) []Event
		if withLog {
			backfill = rangeOf(full)
		}
		r.Release(backfill)

		evs := drain(sub)
		if withLog {
			if !reflect.DeepEqual(evs, full) {
				t.Fatalf("backfilled replay differs from the held stream:\n got %+v\nwant %+v", evs, full)
			}
			continue
		}
		if len(evs) != 5 {
			t.Fatalf("Release(nil): got %d events, want gap + 4: %+v", len(evs), evs)
		}
		if evs[0].Type != Gap || evs[0].Gap.From != 1 || evs[0].Gap.To != 16 {
			t.Fatalf("Release(nil): first event %+v, want gap [1,16]", evs[0])
		}
		if !reflect.DeepEqual(evs[1:], full[16:]) {
			t.Fatalf("Release(nil): window %+v, want %+v", evs[1:], full[16:])
		}
	}
}

// TestReleaseConcurrentWithReaders releases a held ring while readers
// that started with it are still draining (run under -race): each sees
// the whole stream, gap-free, partly from the window and partly from
// the backfill Release installed.
func TestReleaseConcurrentWithReaders(t *testing.T) {
	const events, readers = 2000, 4
	r := testRing(16)
	r.Hold()
	var wg sync.WaitGroup
	streams := make([][]Event, readers)
	for i := range streams {
		wg.Add(1)
		sub := r.Subscribe(0)
		go func(i int, sub *Sub) {
			defer wg.Done()
			defer sub.Cancel()
			for {
				ev, ok := sub.Next(nil)
				if !ok {
					return
				}
				streams[i] = append(streams[i], ev)
			}
		}(i, sub)
	}
	publishN(r, events)
	r.Close()
	full := r.Events()
	r.Release(rangeOf(full))
	wg.Wait()
	for i, got := range streams {
		if !reflect.DeepEqual(got, full) {
			t.Errorf("reader %d saw %d events, want the %d-event held stream", i, len(got), len(full))
		}
	}
}

// TestHeldRingAllocs is the exact allocation gate of the held ring: it
// allocates its window up front and stores events in place, so a job
// that fits the window costs the same allocations at any length.
func TestHeldRingAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			r := NewRing(0)
			r.Hold()
			for i := 0; i < n; i++ {
				r.Publish(Event{Type: OpStarted, T: float64(i)})
			}
		})
	}
	short, full := allocs(20), allocs(DefaultCapacity)
	t.Logf("held: %v allocs for 20 events, %v for %d", short, full, DefaultCapacity)
	if short != full {
		t.Fatalf("NewRing+Hold+Publish: %v allocs for 20 events, %v for %d; want equal",
			short, full, DefaultCapacity)
	}
	if short > 3 {
		t.Fatalf("NewRing+Hold+Publish: %v allocs, want at most 3 (ring, window, subscriber set)", short)
	}
}

// TestUnheldRingStaysBounded publishes ten windows into an unheld ring:
// the storage grows once past the window and is then reused, and the
// retained events are exactly the newest window.
func TestUnheldRingStaysBounded(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			r := NewRing(0)
			for i := 0; i < n; i++ {
				r.Publish(Event{Type: OpStarted})
			}
		})
	}
	if one, ten := allocs(DefaultCapacity), allocs(10*DefaultCapacity); ten > one+1 {
		t.Fatalf("unheld ring: %v allocs for one window, %v for ten; want at most one more", one, ten)
	}
	r := testRing(8)
	publishN(r, 100)
	evs := r.Events()
	if len(evs) != 8 || evs[0].Seq != 93 || evs[7].Seq != 100 {
		t.Fatalf("unheld ring retains %d events from seq %d, want the 8-event window [93,100]", len(evs), evs[0].Seq)
	}
}

package federation

import (
	"context"
	"errors"

	"biochip/internal/service"
	"biochip/internal/stream"
)

// mirrorFor lazily starts a job's event relay: the first subscriber
// (SSE client or test) triggers one background goroutine that streams
// the member's events into a stream.Mirror, and every subscriber —
// concurrent or late — reads from the mirror with the full ring
// contract. Events are ingested verbatim (sequence numbers and wall
// stamps preserved), with only the job ID in job.* payloads rewritten
// into the gateway namespace; gap events appear exactly when the
// member itself reported one, never from relay reconnects, which
// resume from the mirror's cursor.
func (g *Gateway) mirrorFor(j *gwJob) *stream.Mirror {
	j.mirrorOnce.Do(func() {
		j.mirror = stream.NewMirror(stream.DefaultCapacity)
		j.mirror.SetBackfill(func(from, to uint64) []stream.Event {
			return g.rangeFetch(j, from, to)
		})
		g.wg.Add(1)
		go g.relay(j)
	})
	return j.mirror
}

// relay is the per-job replication loop: connect to the member's SSE
// endpoint resuming after the mirror's last sequence number, feed
// frames until the stream ends, reconnect with backoff until the
// job's terminal event has been mirrored. A member restart mid-stream
// is just a reconnect: the durable member re-serves (or
// deterministically re-executes) the job, and the resume cursor
// guarantees no duplicates and no relay-invented gaps.
func (g *Gateway) relay(j *gwJob) {
	defer g.wg.Done()
	defer j.mirror.Close()
	backoff := watchBackoffMin
	for {
		if g.ctx.Err() != nil {
			return
		}
		terminal, err := g.streamOnce(j)
		if terminal {
			return
		}
		if err != nil && errors.Is(err, service.ErrUnknownJob) {
			// The member lost the job (non-durable restart). The watcher
			// fails the job gateway-side; emit its terminal event so
			// subscribers end instead of hanging.
			<-j.done
			g.mu.Lock()
			snap := j.snap
			g.mu.Unlock()
			j.mirror.Feed(stream.Event{
				Seq:  j.mirror.Last() + 1,
				Type: stream.JobFailed,
				Job:  &stream.JobInfo{ID: j.id},
				Err:  snap.Error,
			})
			return
		}
		if !g.sleep(backoff) {
			return
		}
		backoff *= 2
		if backoff > watchBackoffMax {
			backoff = watchBackoffMax
		}
	}
}

// streamOnce runs one SSE connection to the member, feeding the mirror
// until the connection ends. It reports whether the job's terminal
// event was mirrored.
func (g *Gateway) streamOnce(j *gwJob) (terminal bool, err error) {
	sc, err := j.member.Events(g.ctx, j.remoteID, j.mirror.Last())
	if err != nil {
		return false, err
	}
	defer sc.Close()
	for {
		ev, ok := sc.Next()
		if !ok {
			return false, nil
		}
		if ev.Type == stream.Shutdown {
			// The member is draining: its stream is about to end; the
			// next connection lands on the restarted (or drained-and-
			// recovered) member.
			return false, nil
		}
		j.mirror.Feed(j.localize(ev))
		if ev.Type == stream.JobDone || ev.Type == stream.JobFailed {
			return true, nil
		}
	}
}

// localize rewrites a member event into the gateway namespace: the
// member's job ID in a job.* payload becomes the gateway's.
func (j *gwJob) localize(ev stream.Event) stream.Event {
	if ev.Job != nil && ev.Job.ID == j.remoteID {
		job := *ev.Job
		job.ID = j.id
		ev.Job = &job
	}
	return ev
}

// rangeFetch recovers events that left the mirror window — the
// backfill behind deep Last-Event-ID resumes — with one bounded SSE
// fetch from the member, which serves its own (held) ring or durable
// log as appropriate. Events are localized exactly as the live relay
// localizes them.
func (g *Gateway) rangeFetch(j *gwJob, from, to uint64) []stream.Event {
	ctx, cancel := context.WithTimeout(g.ctx, rangeFetchTimeout)
	defer cancel()
	sc, err := j.member.Events(ctx, j.remoteID, from-1)
	if err != nil {
		return nil
	}
	defer sc.Close()
	var out []stream.Event
	for {
		ev, ok := sc.Next()
		if !ok || ev.Seq > to {
			return out
		}
		if ev.Seq < from || ev.Seq == 0 {
			continue
		}
		out = append(out, j.localize(ev))
		if ev.Seq == to {
			return out
		}
	}
}

// SubscribeEvents attaches to a gateway job's mirrored event stream,
// resuming after the given sequence number (service.SubscribeEvents
// semantics). The relay starts on first subscription.
func (g *Gateway) SubscribeEvents(id string, after uint64) (*stream.Sub, bool) {
	g.mu.Lock()
	j, ok := g.jobs[id]
	g.mu.Unlock()
	if !ok {
		return nil, false
	}
	return g.mirrorFor(j).Subscribe(after), true
}

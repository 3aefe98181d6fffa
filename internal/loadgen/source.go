package loadgen

import (
	"context"
	"io"

	"planetapps/internal/model"
	"planetapps/internal/session"
	"planetapps/internal/trace"
)

// Visit is one replayed workload step: User views App's detail page, then
// sends whatever writes the embedded session.Visit plans. Download-stream
// sources (trace, model, slice) yield visits with no writes.
type Visit struct {
	User int32
	session.Visit
}

// eventVisit wraps a download event as a read-only visit.
func eventVisit(e model.Event) Visit {
	return Visit{User: e.User, Visit: session.Visit{App: e.App}}
}

// Source yields the visits a Generator replays as HTTP traffic. Next
// returns io.EOF when the workload is exhausted. Implementations need not
// be safe for concurrent use; the Generator serializes access.
type Source interface {
	Next() (Visit, error)
}

// planSource walks a session plan in user order.
type planSource struct {
	p    *session.Plan
	u, i int
}

// NewPlanSource replays a session plan: each user's visits in order, user
// after user, every visit carrying its planned install, rating and comment.
func NewPlanSource(p *session.Plan) Source { return &planSource{p: p} }

func (s *planSource) Next() (Visit, error) {
	for ; s.u < len(s.p.Users); s.u, s.i = s.u+1, 0 {
		if up := &s.p.Users[s.u]; s.i < len(up.Visits) {
			s.i++
			return Visit{User: up.User, Visit: up.Visits[s.i-1]}, nil
		}
	}
	return Visit{}, io.EOF
}

// traceSource adapts a trace.Reader.
type traceSource struct {
	r *trace.Reader
}

// NewTraceSource replays a recorded binary trace.
func NewTraceSource(r *trace.Reader) Source { return &traceSource{r: r} }

func (s *traceSource) Next() (Visit, error) {
	e, err := s.r.Read()
	return eventVisit(e), err
}

// sliceSource serves a fixed event list (tests, pre-materialized traces).
type sliceSource struct {
	events []model.Event
	i      int
}

// NewSliceSource replays an in-memory event slice.
func NewSliceSource(events []model.Event) Source { return &sliceSource{events: events} }

func (s *sliceSource) Next() (Visit, error) {
	if s.i >= len(s.events) {
		return Visit{}, io.EOF
	}
	e := s.events[s.i]
	s.i++
	return eventVisit(e), nil
}

// modelSource synthesizes events live from a workload simulator, bridging
// the push-style Simulator.Stream into the pull-style Source through a
// bounded channel so generation overlaps replay without materializing the
// whole trace.
type modelSource struct {
	ch     <-chan model.Event
	cancel context.CancelFunc
}

// NewModelSource streams events from sim under ctx; canceling ctx stops
// the generator goroutine. The source ends after the simulator's full
// workload (bound it with Config.MaxEvents if needed).
func NewModelSource(ctx context.Context, sim *model.Simulator, seed uint64) Source {
	ctx, cancel := context.WithCancel(ctx)
	ch := make(chan model.Event, 1024)
	go func() {
		defer close(ch)
		sim.Stream(seed, func(e model.Event) bool {
			select {
			case ch <- e:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return &modelSource{ch: ch, cancel: cancel}
}

func (s *modelSource) Next() (Visit, error) {
	e, ok := <-s.ch
	if !ok {
		return Visit{}, io.EOF
	}
	return eventVisit(e), nil
}

// Close stops the generating goroutine early; safe to call repeatedly.
func (s *modelSource) Close() { s.cancel() }

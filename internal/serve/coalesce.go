package serve

import (
	"context"
	"fmt"
	"sync"
)

// flightGroup implements request coalescing (singleflight): concurrent
// calls with the same key share one execution of fn. A simulation is a
// pure function of its canonicalized request, so when N clients ask the
// same question at once the daemon answers it once and fans the result
// out — the complement of the engine cache, which only helps after a
// result has landed. Followers never consume admission slots: only the
// leader's fn runs, so a burst of identical requests costs one slot and
// one simulation no matter how wide the burst is.
type flightGroup struct {
	mu sync.Mutex
	m  map[[32]byte]*flightCall

	// leaders counts executions started, followers calls that attached
	// to an existing execution. Guarded by mu.
	leaders   uint64
	followers uint64
}

// flightCall is one in-progress execution.
type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[[32]byte]*flightCall)}
}

// Stats returns the leader/follower counters.
func (g *flightGroup) Stats() (leaders, followers uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leaders, g.followers
}

// Do executes fn once per concurrent set of callers sharing key. The
// first caller becomes the leader: fn runs on a detached goroutine, so
// no caller giving up — leader included — aborts work others still
// wait on; fn bounds its own work. Every caller honours its own ctx
// while waiting; shared reports whether this caller attached to an
// execution started by someone else.
//
// The returned value is shared between all callers of one flight, so fn
// must return a value that is safe to read concurrently (the handlers
// return encoded bytes or freshly built response structs that callers
// only serialize).
func (g *flightGroup) Do(ctx context.Context, key [32]byte, fn func() (any, error)) (val any, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.followers++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.leaders++
	g.mu.Unlock()

	go func() {
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("internal: handler panic: %v", r)
			}
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
			close(c.done)
		}()
		c.val, c.err = fn()
	}()

	select {
	case <-c.done:
		return c.val, false, c.err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

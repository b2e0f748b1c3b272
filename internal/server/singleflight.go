package server

import (
	"context"
	"sync"

	"repro/encodingapi"
)

// flightGroup coalesces concurrent identical requests: the first caller for
// a key becomes the leader and runs the solve; every caller arriving while
// the leader is in flight attaches as a follower and receives the leader's
// result. Duplicate traffic therefore costs exactly one solve and one pool
// slot, no matter how many clients submit the same problem at once.
//
// Unlike the x/sync singleflight, followers wait under their own context: a
// follower whose deadline expires detaches with the context error while the
// leader keeps solving for the rest.
type flightGroup struct {
	mu    sync.Mutex
	calls map[requestKey]*flightCall
}

type flightCall struct {
	done chan struct{} // closed when res/err are final
	res  *encodingapi.EncodeResult
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[requestKey]*flightCall)}
}

// do returns the result of fn for key, coalescing concurrent callers.
// leader reports whether this call actually ran fn. onAttach, when
// non-nil, runs for every follower before it starts waiting (metrics
// hook).
func (g *flightGroup) do(ctx context.Context, key requestKey, onAttach func(), fn func() (*encodingapi.EncodeResult, error)) (res *encodingapi.EncodeResult, err error, leader bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		if onAttach != nil {
			onAttach()
		}
		select {
		case <-c.done:
			return c.res, c.err, false
		case <-ctx.Done():
			return nil, ctx.Err(), false
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.res, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.res, c.err, true
}

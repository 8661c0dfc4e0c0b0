package cluster

import "sync"

// proxyResult is one completed upstream exchange, buffered so every
// request deduplicated onto it can replay the same answer.
type proxyResult struct {
	// ok is false when every backend attempt failed; errMsg then
	// carries the last transport error for the 503 envelope.
	ok       bool
	errMsg   string
	status   int
	header   map[string]string // forwardedHeaders subset
	body     []byte
	backend  string
	failover bool
}

// proxyCall is one in-flight upstream exchange; done closes when res
// is set.
type proxyCall struct {
	done chan struct{}
	res  *proxyResult
}

// proxyFlights deduplicates identical in-flight analysis requests on
// their canonical key: the first caller becomes the leader and talks
// to a backend, everyone else arriving before it finishes attaches to
// the same call and replays its buffered response. The router-side
// counterpart of the shards' own coalescing — a burst of identical
// requests costs the cluster one upstream execution instead of one
// per connection.
type proxyFlights struct {
	mu    sync.Mutex
	calls map[[32]byte]*proxyCall
}

// join returns the call for key and whether the caller is its leader.
func (f *proxyFlights) join(key [32]byte) (*proxyCall, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		return c, false
	}
	if f.calls == nil {
		f.calls = make(map[[32]byte]*proxyCall)
	}
	c := &proxyCall{done: make(chan struct{})}
	f.calls[key] = c
	return c, true
}

// finish publishes the leader's result and releases the key so later
// identical requests start a fresh upstream call.
func (f *proxyFlights) finish(key [32]byte, c *proxyCall, res *proxyResult) {
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	c.res = res
	close(c.done)
}

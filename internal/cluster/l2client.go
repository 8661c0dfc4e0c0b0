package cluster

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// L2Client is the shard-side half of the L2 protocol: it implements
// serve.L2Cache over HTTP against a CacheServer. Every failure mode —
// timeout, connection refused, non-200 — is a miss (Get) or a dropped
// store (Put), so a dead or slow cache tier degrades the cluster to
// per-shard caching instead of taking it down. The timeout is short on
// purpose: the tier sits on the cold path in front of a multi-
// millisecond simulation, but must never stall a shard behind a hung
// peer.
type L2Client struct {
	base   string
	client *http.Client
	errors atomic.Uint64
}

// DefaultL2Timeout bounds one L2 round trip.
const DefaultL2Timeout = 500 * time.Millisecond

// NewL2Client builds a client against base (the cache server root,
// e.g. "http://127.0.0.1:7800"); timeout <= 0 uses DefaultL2Timeout.
func NewL2Client(base string, timeout time.Duration) *L2Client {
	if timeout <= 0 {
		timeout = DefaultL2Timeout
	}
	return &L2Client{
		base:   strings.TrimSuffix(base, "/"),
		client: &http.Client{Timeout: timeout},
	}
}

// Errors counts transport-level failures (distinct from clean misses).
func (c *L2Client) Errors() uint64 { return c.errors.Load() }

// Get fetches the body stored under key, reporting ok=false on miss or
// any failure.
func (c *L2Client) Get(key [32]byte) ([]byte, bool) {
	resp, err := c.client.Get(c.base + "/l2/" + WireKey(key))
	if err != nil {
		c.errors.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxL2Body))
	if err != nil {
		c.errors.Add(1)
		return nil, false
	}
	return body, true
}

// Put stores body under key; failures are counted and dropped.
func (c *L2Client) Put(key [32]byte, body []byte) {
	req, err := http.NewRequest(http.MethodPut, c.base+"/l2/"+WireKey(key), bytes.NewReader(body))
	if err != nil {
		c.errors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		c.errors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		c.errors.Add(1)
	}
}

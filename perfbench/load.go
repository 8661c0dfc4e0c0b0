package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator is a closed loop: each of a fixed number of
// clients sends its next request only after the previous reply, the
// way CI jobs and developers wait on the daemon. Requests are numbered;
// the clients share one counter, so the request list is the seed's
// whatever the pace. Latency is measured client-side from just before
// the request is written until its body is fully read.

// outcome is one completed request as the client saw it.
type outcome struct {
	index    int
	endpoint string
	key      [32]byte // SHA-256 of the request key
	status   int      // 0 on transport error
	latency  time.Duration
	done     time.Duration // completion, since the phase began
	size     int
	digest   [32]byte // SHA-256 of the response body
}

// answerKey names one distinct answer: a request and a body digest.
type answerKey struct {
	key, digest [32]byte
}

// phase is the record of one closed-loop phase.
type phase struct {
	outcomes []outcome
	wall     time.Duration
	// bodies keeps one body per distinct answer (trace bodies are
	// checked by digest and not kept).
	bodies map[answerKey][]byte
}

// runLoop drives clients against base from request index first: until
// stopAt when count is 0, else for exactly count requests. gen returns
// request i. When mark requests of the phase have completed, atMark is
// called once, before any client sends another request.
func runLoop(base string, clients, first, count int, stopAt time.Time, gen func(i int) request, mark int, atMark func()) *phase {
	transport := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 120 * time.Second}
	ph := &phase{bodies: map[answerKey][]byte{}}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	next.Store(int64(first))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer // reused: only first-seen answers are copied out
			for {
				if count == 0 && !time.Now().Before(stopAt) {
					return
				}
				i := int(next.Add(1) - 1)
				if count > 0 && i >= first+count {
					return
				}
				r := gen(i)
				o, body := send(client, base, &r, &buf)
				o.done = time.Since(start)
				o.index, o.endpoint, o.key = i, r.Endpoint, r.keySum()
				mu.Lock()
				ph.outcomes = append(ph.outcomes, o)
				if len(ph.outcomes) == mark && atMark != nil {
					atMark()
				}
				if o.status == http.StatusOK && r.Endpoint != "trace" {
					ak := answerKey{o.key, o.digest}
					if _, seen := ph.bodies[ak]; !seen {
						ph.bodies[ak] = bytes.Clone(body)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	sort.Slice(ph.outcomes, func(a, b int) bool { return ph.outcomes[a].index < ph.outcomes[b].index })
	return ph
}

// send posts one request and reads the whole reply into buf; the
// returned body aliases buf.
func send(client *http.Client, base string, r *request, buf *bytes.Buffer) (outcome, []byte) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/"+r.Endpoint, bytes.NewReader(r.Body))
	if err != nil {
		return outcome{}, nil
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return outcome{latency: time.Since(t0)}, nil
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.Bytes()
	o := outcome{status: resp.StatusCode, latency: time.Since(t0), size: len(body)}
	if err != nil {
		o.status = 0
		return o, nil
	}
	o.digest = sha256.Sum256(body)
	return o, body
}

// percentile returns the nearest-rank q-quantile of sorted values, and
// whether at least ten samples lie beyond it (the rule every reported
// tail percentile must meet).
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= 10
}

// geomean is the geometric mean of positive values (1 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// median of a sample (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mustPositive guards the values a run reports: a zero or non-finite
// end-to-end metric means the run measured nothing.
func mustPositive(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is %v: the run measured nothing", name, v)
	}
	return nil
}

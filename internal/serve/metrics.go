package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ascendperf/internal/stats"
)

// durationBuckets are the histogram upper bounds in seconds. The low
// end resolves the sub-millisecond cache-hit/coalesced band the daemon
// exists to serve; the high end covers cold whole-model analyses.
var durationBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metricsRegistry accumulates the daemon's labelled serving counters and
// renders the Prometheus text exposition page. It is deliberately tiny —
// labelled counters, one histogram family, and the declared unlabelled
// series of a StatsResponse — so the repository stays dependency-free.
type metricsRegistry struct {
	mu sync.Mutex

	// requests[endpoint][status] counts completed HTTP requests.
	requests map[string]map[int]uint64
	// shed[reason] counts load-shedded requests (queue_full, draining,
	// timeout).
	shed map[string]uint64
	// coalesced[endpoint] counts requests served as flight followers.
	coalesced map[string]uint64
	// hist[endpoint] holds cumulative latency bucket counts plus sum
	// and count.
	hist map[string]*endpointHist
}

type endpointHist struct {
	buckets []uint64 // one per durationBuckets entry, non-cumulative
	sum     float64
	count   uint64
}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{
		requests:  make(map[string]map[int]uint64),
		shed:      make(map[string]uint64),
		coalesced: make(map[string]uint64),
		hist:      make(map[string]*endpointHist),
	}
}

// observe records one completed request.
func (m *metricsRegistry) observe(endpoint string, status int, seconds float64, shared bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode := m.requests[endpoint]
	if byCode == nil {
		byCode = make(map[int]uint64)
		m.requests[endpoint] = byCode
	}
	byCode[status]++
	if shared {
		m.coalesced[endpoint]++
	}
	h := m.hist[endpoint]
	if h == nil {
		h = &endpointHist{buckets: make([]uint64, len(durationBuckets))}
		m.hist[endpoint] = h
	}
	for i, ub := range durationBuckets {
		if seconds <= ub {
			h.buckets[i]++
			break
		}
	}
	h.sum += seconds
	h.count++
}

// observeShed records one load-shedded request.
func (m *metricsRegistry) observeShed(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shed[reason]++
}

// totals returns the per-endpoint request totals and the shed counts by
// reason, the /v1/stats views of the labelled families.
func (m *metricsRegistry) totals() (requests, shed map[string]uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	requests = make(map[string]uint64, len(m.requests))
	for ep, byCode := range m.requests {
		for _, n := range byCode {
			requests[ep] += n
		}
	}
	shed = make(map[string]uint64, len(m.shed))
	for reason, n := range m.shed {
		shed[reason] = n
	}
	return requests, shed
}

// writeCounter emits one labelled counter sample.
func writeCounter(b *strings.Builder, name, labels string, v uint64) {
	fmt.Fprintf(b, "%s{%s} %d\n", name, labels, v)
}

// Render emits the full exposition page: the labelled families from the
// registry, then one unlabelled series per field of snap that declares
// a metric name.
func (m *metricsRegistry) Render(snap StatsResponse) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	b.WriteString("# HELP ascendd_requests_total Completed HTTP requests by endpoint and status code.\n")
	b.WriteString("# TYPE ascendd_requests_total counter\n")
	for _, ep := range sortedKeys(m.requests) {
		codes := make([]int, 0, len(m.requests[ep]))
		for c := range m.requests[ep] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			writeCounter(&b, "ascendd_requests_total",
				fmt.Sprintf("endpoint=%q,code=\"%d\"", ep, c), m.requests[ep][c])
		}
	}

	b.WriteString("# HELP ascendd_coalesced_total Requests answered by attaching to an identical in-flight request.\n")
	b.WriteString("# TYPE ascendd_coalesced_total counter\n")
	for _, ep := range sortedKeys(m.coalesced) {
		writeCounter(&b, "ascendd_coalesced_total", fmt.Sprintf("endpoint=%q", ep), m.coalesced[ep])
	}

	b.WriteString("# HELP ascendd_shed_total Requests rejected by admission control.\n")
	b.WriteString("# TYPE ascendd_shed_total counter\n")
	for _, reason := range sortedKeys(m.shed) {
		writeCounter(&b, "ascendd_shed_total", fmt.Sprintf("reason=%q", reason), m.shed[reason])
	}

	b.WriteString("# HELP ascendd_request_duration_seconds Request latency by endpoint.\n")
	b.WriteString("# TYPE ascendd_request_duration_seconds histogram\n")
	for _, ep := range sortedKeys(m.hist) {
		h := m.hist[ep]
		var cum uint64
		for i, ub := range durationBuckets {
			cum += h.buckets[i]
			fmt.Fprintf(&b, "ascendd_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", ep, ub, cum)
		}
		fmt.Fprintf(&b, "ascendd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, h.count)
		fmt.Fprintf(&b, "ascendd_request_duration_seconds_sum{endpoint=%q} %g\n", ep, h.sum)
		fmt.Fprintf(&b, "ascendd_request_duration_seconds_count{endpoint=%q} %d\n", ep, h.count)
	}

	for _, f := range stats.Fields(&snap) {
		if f.Metric != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", f.Metric, f.Help, f.Metric, f.Kind, f.Metric, f.Value)
		}
	}
	return b.String()
}

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

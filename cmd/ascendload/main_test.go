package main

import (
	"strings"
	"testing"
	"time"

	"ascendperf/internal/cluster"
)

// TestGates runs every assertion flag against a two-entry report (an
// unkilled and a killed spawned entry): disabled, at its bound (passes)
// and one step past it (fails, naming the violated quantity and the
// entry).
func TestGates(t *testing.T) {
	rep := &cluster.Report{
		Scaling2: 1.5,
		Entries: []cluster.Entry{
			{
				Backends:         1,
				Errors:           0,
				Cold:             cluster.Latency{P50NS: int64(20 * time.Millisecond)},
				Measured:         cluster.Latency{P50NS: int64(time.Millisecond)},
				RespCacheHitRate: 0.9,
				L2:               &cluster.CacheServerStats{},
				L2RestartHitRate: 1,
			},
			{
				Backends:         2,
				Errors:           2,
				Cold:             cluster.Latency{P50NS: int64(16 * time.Millisecond)},
				Measured:         cluster.Latency{P50NS: int64(2 * time.Millisecond)},
				RespCacheHitRate: 0.4,
				Killed:           true,
				Failovers:        3,
				L2:               &cluster.CacheServerStats{},
				L2RestartHitRate: 0.6,
			},
		},
	}
	off := limits{maxErrors: -1, minHitRate: -1, minSpeedup: -1, minFailover: -1, minL2: -1, minScaling2: -1}
	for _, tc := range []struct {
		name       string
		pass, fail func(*limits)
		want       string // substring of the failure
	}{
		{"maxerrors", func(l *limits) { l.maxErrors = 2 }, func(l *limits) { l.maxErrors = 1 }, "2 backend(s): 2 errors"},
		{"minhitrate", func(l *limits) { l.minHitRate = 0.4 }, func(l *limits) { l.minHitRate = 0.5 }, "2 backend(s): response cache hit rate"},
		{"minspeedup", func(l *limits) { l.minSpeedup = 8 }, func(l *limits) { l.minSpeedup = 9 }, "2 backend(s): measured p50 speedup"},
		{"maxwarmp50", func(l *limits) { l.maxWarmP50 = 2 * time.Millisecond }, func(l *limits) { l.maxWarmP50 = time.Millisecond }, "2 backend(s): measured p50 2ms"},
		{"minfailover", func(l *limits) { l.minFailover = 3 }, func(l *limits) { l.minFailover = 4 }, "2 backend(s): 3 failovers"},
		{"minl2", func(l *limits) { l.minL2 = 0.6 }, func(l *limits) { l.minL2 = 0.7 }, "2 backend(s): L2 restart hit rate"},
		{"minscaling2", func(l *limits) { l.minScaling2 = 1.5 }, func(l *limits) { l.minScaling2 = 1.7 }, "2-backend scaling"},
	} {
		pass, fail := off, off
		tc.pass(&pass)
		tc.fail(&fail)
		if got := gates(rep, pass); len(got) != 0 {
			t.Errorf("%s at its bound failed: %v", tc.name, got)
		}
		got := gates(rep, fail)
		if len(got) != 1 || !strings.Contains(got[0], tc.want) {
			t.Errorf("%s past its bound = %v, want one failure containing %q", tc.name, got, tc.want)
		}
	}
	if got := gates(rep, off); len(got) != 0 {
		t.Errorf("disabled gates failed: %v", got)
	}
	// -minfailover applies to killed entries only, and -minl2 to spawned
	// entries only: a daemon entry has neither.
	daemon := &cluster.Report{Entries: []cluster.Entry{{Backends: 0}}}
	l := off
	l.minFailover, l.minL2 = 1, 0.5
	if got := gates(daemon, l); len(got) != 0 {
		t.Errorf("failover/L2 gates fired on a daemon entry: %v", got)
	}
}

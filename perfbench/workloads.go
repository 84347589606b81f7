package main

import (
	"time"

	"memqlat/internal/workload"
)

// The workloads' offered rates and latency limits are fixed absolute
// numbers, so a parent commit and a change see the same load. They were
// chosen from calibration runs on a 2-vCPU virtual machine (see
// README.md): each ladder starts well below the knee and climbs in steps
// of ladderStep to past the closed-loop capacity, and each limit lies
// between the p99 the stack keeps at the workload's high rate and the
// p99 of an overloaded rung.
var kvWorkloads = map[string]*kvSpec{
	// kv_get spends nearly all its time on the per-key hot path: socket
	// syscalls, protocol parse, cache lookup, reply write and client
	// pooling. It bypasses the proxy, the backend, eviction and writes.
	"kv_get": {
		name:      "kv_get",
		servers:   2,
		keys:      100_000,
		zipfS:     1.0,
		multiget:  1,
		valueSize: 100,
		xi:        0.15,
		q:         0.1,
		ladder:    geometricLadder(20_000, 12),
		low:       0,
		high:      3, // 30.4k/s
		limit:     2 * time.Millisecond,
	},
	// kv_multiget_rw exercises request-level fork-join latency through
	// the proxy, the cache write and eviction path, and backend fills.
	"kv_multiget_rw": {
		name:      "kv_multiget_rw",
		servers:   2,
		keys:      100_000,
		zipfS:     1.0,
		multiget:  10,
		setFrac:   0.1,
		proxied:   true,
		fill:      true,
		valueSize: 100,
		lognormal: true,
		missRatio: workload.FacebookMissRatio,
		xi:        0.15,
		q:         0.1,
		ladder:    geometricLadder(2000, 11),
		low:       0,
		high:      3, // 3.04k/s
		limit:     50 * time.Millisecond,
	},
}

// ladderStep is the ratio between neighbouring rungs. It is below the
// bound slo_rate_ops is judged by, so a change in capacity of that size
// moves the highest passing rung.
const ladderStep = 1.15

// geometricLadder returns n rates from `from` up in steps of ladderStep.
func geometricLadder(from float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = from
		from *= ladderStep
	}
	return out
}

// Run shape. A measured kv run sets its stack up setupRepeats times and
// keeps the last; it spends peakShare of --seconds in the closed loop
// and the rest climbing the ladder climbs times, split evenly between
// rungs. A climb stops after overloadStop rungs in a row overloaded the
// stack and missed the limit.
const (
	setupRepeats   = 5
	warmRequests   = 2000
	closedRequests = 1 << 16
	peakShare      = 0.1
	climbs         = 3
	overloadStop   = 2
	// drain is how long after its last due time a rung may still send;
	// later requests are abandoned as missing the limit.
	drain = time.Second
	// lagShare bounds the generator's own lateness: a run whose p99
	// lateness exceeds this share of the workload's latency limit
	// measured the generator, not the system, and is rejected.
	lagShare = 0.5
)

package main

import (
	"fmt"
	"math"
	"sort"
)

// metric names one reported quantity. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry no bound. Moves names the
// end-to-end metric@workload a per-layer metric should move.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"-"`
}

// endToEnd are the metrics every untraced run reports, on every workload.
// Each is never 0 on a successful run. A bound covers every workload, so it
// is set by the noisiest: on a 2-vCPU virtual machine whose speed drifts by
// ±15% over minutes, the spread over ten seeds reaches 0.2 for the solver-
// and syscall-bound workloads, and a minutes-long episode of hypervisor
// steal moves even hot_repeat's tail, whose other metrics the batch window
// holds within 0.05. baseline.json records the spreads.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_rps", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.2},
}

// reportOnly are end-to-end quantities the human report prints but the
// final JSON line omits: error_rate is 0 on every passing run (the line's
// "failed" field carries it), and the two savings are defined only on the
// workloads whose responses carry them ("n/a" elsewhere). The per-layer
// core.energy_saving_pct and sim.runtime_saving_pct price the same
// quantities on every workload's inputs.
var reportOnly = []metric{
	{Name: "error_rate", Unit: "fraction", Better: "lower"},
	{Name: "energy_saving_pct", Unit: "%", Better: "higher"},
	{Name: "runtime_saving_pct", Unit: "%", Better: "higher"},
}

// layers are the per-layer metrics a -trace 1 run reports, on every
// workload. Times are mean self times of the replay's spans unless the name
// says otherwise; server-side waits and counts are deltas of the server's
// /metrics over the timed phase, read as _sum/_count means.
var layers = []metric{
	{Name: "server.decode_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms@hot_repeat,session_durable"},
	{Name: "server.fingerprint_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms@hot_repeat"},
	{Name: "server.encode_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms@hot_repeat"},
	{Name: "server.admission_waits", Unit: "count", Better: "lower", Moves: "latency_tail_ms@all"},
	{Name: "server.batch_wait_share", Unit: "fraction", Better: "lower", Moves: "latency_p50_ms,throughput_rps@hot_repeat"},
	{Name: "server.batch_size_mean", Unit: "req/batch", Better: "higher", Moves: "throughput_rps@hot_repeat"},
	{Name: "server.coalesced_ratio", Unit: "fraction", Better: "higher", Moves: "throughput_rps@hot_repeat"},
	{Name: "server.request_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms@all"},
	{Name: "server.unattributed_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms@all"},
	{Name: "http.transport_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms@hot_repeat,session_durable"},
	{Name: "grid.memo_hit_ratio", Unit: "fraction", Better: "higher", Moves: "throughput_rps@hot_repeat"},
	{Name: "grid.memo_hit_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms@hot_repeat"},
	{Name: "grid.misses_per_request", Unit: "count", Better: "lower", Moves: "throughput_rps@cold_solve,partitioned"},
	{Name: "core.feasible_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms@hot_repeat"},
	{Name: "core.wcs_avg_eval_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms@hot_repeat"},
	{Name: "core.wcs_ms", Unit: "ms", Better: "lower", Moves: "throughput_rps,latency_p50_ms,latency_tail_ms@cold_solve"},
	{Name: "core.acs_ms", Unit: "ms", Better: "lower", Moves: "throughput_rps,latency_p50_ms,latency_tail_ms@cold_solve"},
	{Name: "core.sweeps_mean", Unit: "count", Better: "lower", Moves: "throughput_rps@cold_solve"},
	{Name: "core.pieces_mean", Unit: "count", Better: "lower", Moves: "throughput_rps@cold_solve"},
	{Name: "core.codec_encode_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms@session_durable"},
	{Name: "core.codec_decode_us", Unit: "us", Better: "lower", Moves: "setup_s@session_durable"},
	{Name: "core.energy_saving_pct", Unit: "%", Better: "higher", Moves: "energy_saving_pct@hot_repeat,cold_solve,partitioned"},
	{Name: "partition.admit_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms@partitioned"},
	{Name: "partition.solve_ms", Unit: "ms", Better: "lower", Moves: "throughput_rps@partitioned"},
	{Name: "sim.compile_us", Unit: "us", Better: "lower", Moves: "setup_s@hot_repeat"},
	{Name: "sim.compare_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms@hot_repeat"},
	{Name: "sim.runtime_saving_pct", Unit: "%", Better: "higher", Moves: "runtime_saving_pct@hot_repeat"},
	{Name: "store.put_blob_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms@session_durable"},
	{Name: "store.put_schedule_us", Unit: "us", Better: "lower", Moves: "latency_tail_ms@session_durable"},
	{Name: "store.get_schedule_us", Unit: "us", Better: "lower", Moves: "latency_tail_ms@session_durable"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower", Moves: "setup_s@session_durable"},
	{Name: "store.tier_hits_mem", Unit: "count", Better: "higher", Moves: "latency_tail_ms@session_durable"},
	{Name: "store.tier_hits_disk", Unit: "count", Better: "lower", Moves: "latency_tail_ms@session_durable"},
	{Name: "feedback.observe_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms@session_durable"},
	{Name: "feedback.resolve_ms", Unit: "ms", Better: "lower", Moves: "latency_tail_ms,throughput_rps@session_durable"},
	{Name: "feedback.snapshot_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms@session_durable"},
	{Name: "feedback.checkpoint_bytes", Unit: "bytes", Better: "lower", Moves: "latency_p50_ms@session_durable"},
	{Name: "feedback.resolves", Unit: "count", Better: "lower", Moves: "throughput_rps@session_durable"},
	{Name: "obs.observe_ns", Unit: "ns", Better: "lower", Moves: "latency_p50_ms@hot_repeat"},
	{Name: "retry.retries", Unit: "count", Better: "lower", Moves: "latency_tail_ms@all"},
	{Name: "retry.sheds", Unit: "count", Better: "lower", Moves: "latency_tail_ms@all"},
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailAt returns the nearest-rank p-quantile of sorted and how many samples
// lie beyond it. It fails when fewer than minBeyond do: such a percentile
// would be one or two samples' noise, not a tail.
func tailAt(sorted []float64, p float64) (v float64, beyond int, err error) {
	n := len(sorted)
	k := rank(n, p)
	if n == 0 || n-k < minBeyond {
		return 0, n - k, fmt.Errorf("p%g of %d samples has %d samples beyond it, want at least %d",
			100*p, n, n-k, minBeyond)
	}
	return sorted[k-1], n - k, nil
}

// nearestRank returns the nearest-rank p-quantile of sorted (0 when empty).
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank ceil(p·n), clamped to [1, n].
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) and
// statistics.median, the rule BENCHMARK.json's bounds are checked with.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

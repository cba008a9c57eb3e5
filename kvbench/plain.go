package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"bespokv/internal/topology"
	"bespokv/internal/workload"
)

// setups is how many times an untraced run sets up; setup_s is the median.
const setups = 5

// runPlain is the untraced run: several set-ups, then one measured
// closed-loop window, the correctness gate, and the live heap with the
// cluster still up.
func runPlain(w spec, seed int64, d time.Duration) (*result, error) {
	chk := newChecker(w, seed)
	times := make([]time.Duration, 0, setups)
	var dep *deployment
	var gens []*workload.Generator
	for s := 0; s < setups; s++ {
		if dep != nil {
			dep.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if dep, gens, err = setUp(w, seed, chk); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
	}
	defer dep.close()

	lr := runLoop(dep.clients, gens, chk, d, int(d/partLen), false)

	r := &result{Correct: true, Attempted: lr.Attempted, Failed: lr.Failed}
	if err := chk.failure(); err != nil {
		r.fail(err)
	}
	ok := func(x window) float64 { return float64(x.Attempted - x.Failed) }
	r.add(partMetric("throughput_kops", "kop/s", atMedian, lr.Attempted, lr.window, lr.Parts, func(x window) float64 { return ok(x) / x.run().Seconds() / 1e3 }))
	wall := partMetric("throughput_wall_kops", "kop/s", atMedian, lr.Attempted, lr.window, lr.Parts, func(x window) float64 { return ok(x) / x.Elapsed.Seconds() / 1e3 })
	wall.Unbounded = true
	r.add(wall)
	for _, p := range []struct {
		name string
		kind workload.Kind
		q    float64
	}{{"get_p50_us", workload.Get, 0.5}, {"get_p99_us", workload.Get, 0.99}, {"put_p50_us", workload.Put, 0.5}, {"put_p99_us", workload.Put, 0.99}} {
		parts := mergeParts(lr.Parts, p.kind, minPartSamples)
		m := partMetric(p.name, "us", atLowerQuartile, int64(len(lr.Lat[p.kind])), lr.window, parts, func(x window) float64 {
			return float64(percentile(sortDurations(x.Lat[p.kind]), p.q).Value) / 1e3
		})
		m.Unbounded = p.q > 0.5
		r.add(m)
	}
	r.add(partMetric("cpu_us_per_op", "us", atLowerQuartile, lr.Attempted, lr.window, lr.Parts, func(x window) float64 { return float64(x.CPU) / 1e3 / ok(x) }))

	if err := chk.sentinelGate(dep.clients[0], w.mode.Consistency == topology.Eventual); err != nil {
		r.fail(err)
	}
	// Weighed only now, when the benchmark's own latency samples are no
	// longer live, so the figure is the cluster's.
	heap, err := liveHeap(dep, w.durable)
	if err != nil {
		return nil, err
	}
	r.add(metric{Name: "heap_mb", Value: heap, Unit: "MB", Base: "after forced GC"})
	sortDurations(times)
	r.add(metric{Name: "setup_s", Value: times[len(times)/2].Seconds(), Unit: "s", Base: fmt.Sprintf("median of %d set-ups %v", len(times), times)})
	return r, nil
}

// partLen is the length of one part of the measured window. Each
// end-to-end figure is computed per part and read at a quantile of the
// parts. Interference on a shared 2-vCPU machine — CPU steal from
// neighbouring guests, which here ranges from 5% to over 45% of a second
// and roughly doubles a part's p99 — only ever makes a part slower. A
// time or a CPU cost is therefore read at the lower quartile, so the
// better parts track the program and the worse ones absorb the noise.
// The op rate is taken over each part's unstolen time (window.run),
// which divides the steal out, and is read at the median. The record
// keeps the median and the whole-window value of every figure too.
const partLen = time.Second

// Quantiles of the parts a figure is read at (see partLen).
const (
	atLowerQuartile = 0.25
	atMedian        = 0.5
)

// minPartSamples is the fewest latency samples a part may hold: ten beyond
// its p99. Latency parts are runs of adjacent one-second parts merged
// until each holds at least this many samples of the op kind.
const minPartSamples = 1000

// partMetric reports f over parts at quantile q of the parts (see
// partLen), with the sample count n, the part count, their range, median
// and the whole-window value.
func partMetric(name, unit string, q float64, n int64, whole window, parts []window, f func(window) float64) metric {
	vals := make([]float64, len(parts))
	for i, p := range parts {
		vals[i] = f(p)
	}
	sort.Float64s(vals)
	return metric{Name: name, Value: quantile(vals, q), Unit: unit,
		Base: fmt.Sprintf("n=%d; %d parts %.4g..%.4g, median %.4g; whole window %.4g", n, len(vals), vals[0], vals[len(vals)-1], median(vals), f(whole))}
}

// liveHeap is the live heap in MB after a forced GC. Durable engines are
// checkpointed first, which empties their write-ahead logs, so the heap
// holds the same data however many writes the run managed.
func liveHeap(d *deployment, durable bool) (float64, error) {
	type checkpointer interface{ Checkpoint() error }
	for _, p := range d.c.Shards[0] {
		if cp, ok := p.Datalet.Engine("").(checkpointer); ok && durable {
			if err := cp.Checkpoint(); err != nil {
				return 0, fmt.Errorf("checkpoint before heap: %w", err)
			}
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20), nil
}

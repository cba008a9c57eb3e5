package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/topology"
	"bespokv/internal/workload"
)

// Registry series the traced run takes window deltas of.
var (
	sBatches   = series{name: "bespokv_datalet_client_batches_total"}
	sBatched   = series{name: "bespokv_datalet_client_batched_requests_total"}
	sChain     = series{name: "bespokv_controlet_chain_forwards_total"}
	sReplAll   = series{name: "bespokv_controlet_replicate_all_total"}
	sShed      = series{name: "bespokv_overload_shed_total", labels: []string{"layer", "controlet"}}
	sAppends   = series{name: "bespokv_sharedlog_appends_total"}
	sEntries   = series{name: "bespokv_sharedlog_entries_total"}
	sRetries   = series{name: "bespokv_client_retries_total"}
	sRedirects = series{name: "bespokv_client_redirects_total"}
	sLockWait  = series{name: "bespokv_controlet_lock_wait_seconds"}
	sLogAppend = series{name: "bespokv_controlet_log_append_seconds"}

	windowCounters = []series{sBatches, sBatched, sChain, sReplAll, sShed, sAppends, sEntries, sRetries, sRedirects}
)

// procSnap is the process's own counters at one instant: heap
// allocations, the runtime's estimate of GC CPU time (which it updates as
// each GC cycle ends), and the CPU time rusage reports.
type procSnap struct {
	mallocs uint64
	gcCPU   float64
	cpu     time.Duration
}

func snapshotProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return procSnap{mallocs: ms.Mallocs, gcCPU: s[0].Value.Float64(), cpu: cpuTime()}
}

// runTraced is the per-layer run: an untraced window, the same closed loop
// again with one span per client call (phase A) bracketed by registry
// snapshots, the correctness gate, then the unloaded peel (phase B). The
// windows split d 2:2:1.
func runTraced(w spec, seed int64, d time.Duration) (*result, error) {
	chk := newChecker(w, seed)
	dep, gens, err := setUp(w, seed, chk)
	if err != nil {
		return nil, err
	}
	defer dep.close()

	plain := runLoop(dep.clients, gens, chk, d*2/5, 1, false)
	reg := metrics.Default
	c0, lw0, la0, p0 := snapshotCounters(reg, windowCounters), snapshotHist(reg, sLockWait), snapshotHist(reg, sLogAppend), snapshotProc()
	a := runLoop(dep.clients, gens, chk, d*2/5, 1, true)
	c1, lw1, la1, p1 := snapshotCounters(reg, windowCounters), snapshotHist(reg, sLockWait), snapshotHist(reg, sLogAppend), snapshotProc()
	goroutines := runtime.NumGoroutine()
	dc := delta(c0, c1)

	r := &result{Correct: true, Attempted: plain.Attempted + a.Attempted, Failed: plain.Failed + a.Failed}
	if err := chk.failure(); err != nil {
		r.fail(err)
	}
	if err := chk.sentinelGate(dep.clients[0], w.mode.Consistency == topology.Eventual); err != nil {
		r.fail(err)
	}

	pl, err := newPeeler(w, dep, chk, seed)
	if err != nil {
		return nil, err
	}
	gen, err := w.generator(seed, 0)
	if err != nil {
		pl.close()
		return nil, err
	}
	pr, err := pl.run(gen, d/5)
	pl.close()
	if err != nil {
		return nil, err
	}
	if err := chk.failure(); err != nil {
		r.fail(err)
	}

	opsA := a.Attempted - a.Failed
	putsA := int64(len(a.Lat[workload.Put]))
	getL, putL := ledger(pr.ledgerInput(w, workload.Get)), ledger(pr.ledgerInput(w, workload.Put))
	r.Ledger = map[string][]ledgerLine{"GET": getL, "PUT": putL}

	us := func(layer string, k workload.Kind, both bool) (float64, string) {
		p := pr.Stats.p50(layer, k, both)
		return float64(p.Value) / 1e3, fmt.Sprintf("n=%d", p.N)
	}
	timing := func(name, layer string, k workload.Kind, both, present bool) {
		v, base := us(layer, k, both)
		r.add(metric{Name: name, Value: v, Unit: "us", Base: base, Absent: !present})
	}
	nanos := func(name, layer string, k workload.Kind, both bool) {
		v, base := us(layer, k, both)
		r.add(metric{Name: name, Value: v * 1e3, Unit: "ns", Base: base})
	}
	self := func(name string, lines []ledgerLine, layer string) {
		r.add(metric{Name: name, Value: selfOf(lines, layer), Unit: "us", Base: "ledger"})
	}
	rat := func(name, unit string, q ratio, present bool) {
		r.add(metric{Name: name, Value: q.Value, Unit: unit, Base: fmt.Sprintf("%d/%d", q.Num, q.Den), Absent: !present || q.Absent})
	}
	perKop := func(s series) ratio { return newRatio(dc[s.key()], opsA, 1000) }
	wait := func(name string, k workload.Kind) {
		loaded := float64(percentile(sortDurations(a.Lat[k]), 0.5).Value) / 1e3
		unloaded, _ := us(lClient, k, false)
		r.add(metric{Name: name, Value: loaded - unloaded, Unit: "us", Base: fmt.Sprintf("loaded p50 %.3f - unloaded p50 %.3f", loaded, unloaded)})
	}

	timing("transport.rtt_us", lTransport, workload.Get, true, true)
	nanos("wire.encode_ns", lWireEnc, workload.Get, true)
	nanos("wire.decode_ns", lWireDec, workload.Get, true)
	r.add(metric{Name: "wire.allocs_per_op", Value: pr.WireAllocs, Unit: "count", Base: "encode+decode of one request and one response"})
	timing("datalet.nop_us", lNop, workload.Get, true, true)
	timing("datalet.get_us", lDatalet, workload.Get, false, true)
	timing("datalet.put_us", lDatalet, workload.Put, false, true)
	self("datalet.self_get_us", getL, lDatalet)
	self("datalet.self_put_us", putL, lDatalet)
	rat("datalet.client_batch", "count", newRatio(dc[sBatched.key()], dc[sBatches.key()], 1), true)
	timing("controlet.get_us", lControlet, workload.Get, false, true)
	timing("controlet.put_us", lControlet, workload.Put, false, true)
	self("controlet.self_get_us", getL, lControlet)
	self("controlet.self_put_us", putL, lControlet)
	rat("controlet.chain_forwards_per_put", "count", newRatio(dc[sChain.key()], putsA, 1), w.usesChain())
	rat("controlet.replicate_all_per_put", "count", newRatio(dc[sReplAll.key()], putsA, 1), w.usesDLM())
	rat("controlet.shed_per_kop", "count", perKop(sShed), true)
	timing("dlm.lock_us", lDLMLock, workload.Get, true, w.usesDLM())
	timing("dlm.unlock_us", lDLMUnlock, workload.Get, true, w.usesDLM())
	rat("controlet.lock_wait_us", "us", windowMean(lw0, lw1), w.usesDLM())
	timing("sharedlog.append_us", lLog, workload.Put, false, w.usesLog())
	rat("sharedlog.entries_per_append", "count", newRatio(dc[sEntries.key()], dc[sAppends.key()], 1), w.usesLog())
	rat("controlet.log_append_us", "us", windowMean(la0, la1), w.usesLog())
	nanos("store.get_ns", lStore, workload.Get, false)
	nanos("store.put_ns", lStore, workload.Put, false)
	timing("client.get_us", lClient, workload.Get, false, true)
	timing("client.put_us", lClient, workload.Put, false, true)
	self("client.self_get_us", getL, lClient)
	self("client.self_put_us", putL, lClient)
	rat("client.retries_per_kop", "count", perKop(sRetries), true)
	rat("client.redirects_per_kop", "count", perKop(sRedirects), true)
	wait("client.wait_get_us", workload.Get)
	wait("client.wait_put_us", workload.Put)
	r.add(metric{Name: "process.allocs_per_op", Value: float64(p1.mallocs-p0.mallocs) / float64(opsA), Unit: "count", Base: fmt.Sprintf("%d mallocs / %d ops", p1.mallocs-p0.mallocs, opsA)})
	gcCPU, cpu := p1.gcCPU-p0.gcCPU, (p1.cpu - p0.cpu).Seconds()
	r.add(metric{Name: "process.gc_cpu_frac", Value: gcCPU / cpu, Unit: "frac", Base: fmt.Sprintf("gc %.3fs / cpu %.3fs", gcCPU, cpu)})
	r.add(metric{Name: "process.goroutines", Value: float64(goroutines), Unit: "count", Base: "end of phase A"})
	for _, p := range []struct {
		name string
		kind workload.Kind
	}{{"get_p99_us", workload.Get}, {"put_p99_us", workload.Put}} {
		v := percentile(sortDurations(a.Lat[p.kind]), 0.99)
		r.add(metric{Name: p.name, Value: float64(v.Value) / 1e3, Unit: "us", Base: fmt.Sprintf("n=%d; phase A, whole window", v.N)})
	}
	r.add(metric{Name: "error_frac", Value: float64(r.Failed) / float64(r.Attempted), Unit: "frac", Base: fmt.Sprintf("%d/%d", r.Failed, r.Attempted)})
	plainK := float64(plain.Attempted-plain.Failed) / plain.run().Seconds()
	tracedK := float64(opsA) / a.run().Seconds()
	r.add(metric{Name: "trace.overhead_pct", Value: (plainK - tracedK) / plainK * 100, Unit: "%", Base: fmt.Sprintf("untraced %.0f op/s vs phase A %.0f op/s", plainK, tracedK)})

	r.Spans = append(a.Spans, pr.Spans...)
	return r, nil
}

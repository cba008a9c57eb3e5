package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/workload"
)

// span is one timed call at a layer boundary. Phase-A spans are the
// client calls of the loaded loop (Parent 0); phase-B spans are the
// peel's calls, each naming as Parent the client-level call with the same
// op index.
type span struct {
	ID     uint64
	Parent uint64
	Phase  byte // 'A' or 'B'
	Layer  string
	Kind   workload.Kind
	Start  time.Time
	Dur    time.Duration
}

// window is what a closed loop produced over some stretch of time.
type window struct {
	Elapsed   time.Duration
	Attempted int64
	Failed    int64
	// Lat holds op latencies by kind; a failed op is recorded as
	// failedLatency so it counts as missing every latency limit.
	Lat [2][]time.Duration
	// CPU is the process CPU time spent over the stretch.
	CPU time.Duration
	// Steal is the wall time the machine's vCPUs were held off the host
	// over the stretch: the steal time of /proc/stat over the vCPU count.
	Steal time.Duration
}

// run is the part of Elapsed the machine was not stolen from: the time
// the program could run in. On a shared host the neighbours take a share
// of every vCPU that drifts from minute to minute; a rate over this time
// follows the program rather than that share.
func (w window) run() time.Duration { return w.Elapsed - w.Steal }

func (w *window) merge(o window) {
	w.Attempted += o.Attempted
	w.Failed += o.Failed
	for k := range w.Lat {
		w.Lat[k] = append(w.Lat[k], o.Lat[k]...)
	}
}

// loopResult is one measured closed-loop run: the whole window, the same
// ops split into equal parts by start time, and the spans.
type loopResult struct {
	window
	Parts []window
	Spans []span
}

const failedLatency = time.Duration(1<<63 - 1)

// runLoop drives the closed loop: each caller sends its next op only after
// the previous one completed, for d, split into nparts equal parts.
// Ops that straddle the end of the window are not counted. With traced
// set, every client call also leaves a phase-A span.
func runLoop(clients []*client.Client, gens []*workload.Generator, chk *checker, d time.Duration, nparts int, traced bool) loopResult {
	partsOf := make([][]window, len(clients))
	spansOf := make([][]span, len(clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			partsOf[i], spansOf[i] = caller(uint64(i), clients[i], gens[i], chk, start, d, nparts, traced)
		}(i)
	}
	// Sample CPU and steal time at every part boundary while the callers
	// run.
	cpu := make([]time.Duration, nparts+1)
	steal := make([]time.Duration, nparts+1)
	cpu[0], steal[0] = cpuTime(), stealTime()
	for k := 1; k <= nparts; k++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(nparts))))
		cpu[k], steal[k] = cpuTime(), stealTime()
	}
	wg.Wait()
	out := loopResult{window: window{Elapsed: deadline.Sub(start), CPU: cpu[nparts] - cpu[0], Steal: steal[nparts] - steal[0]}, Parts: make([]window, nparts)}
	for k := range out.Parts {
		out.Parts[k] = window{Elapsed: d / time.Duration(nparts), CPU: cpu[k+1] - cpu[k], Steal: steal[k+1] - steal[k]}
	}
	for i := range clients {
		for k := range out.Parts {
			out.Parts[k].merge(partsOf[i][k])
		}
		out.Spans = append(out.Spans, spansOf[i]...)
	}
	for _, part := range out.Parts {
		out.merge(part)
	}
	return out
}

// caller is one closed-loop client: it returns its ops by part and,
// when traced, one span per call.
func caller(id uint64, cl *client.Client, gen *workload.Generator, chk *checker, start time.Time, d time.Duration, nparts int, traced bool) ([]window, []span) {
	parts := make([]window, nparts)
	var spans []span
	deadline := start.Add(d)
	for seq := uint64(1); ; seq++ {
		op := gen.Next()
		t0 := time.Now()
		if !t0.Before(deadline) {
			return parts, spans
		}
		var err error
		switch op.Kind {
		case workload.Get:
			var v []byte
			var found bool
			v, found, err = cl.Get("", op.Key)
			if err == nil {
				chk.observe(op.Key, v, found)
			}
		case workload.Put:
			err = cl.Put("", op.Key, op.Value)
		}
		dur := time.Since(t0)
		if t0.Add(dur).After(deadline) {
			return parts, spans
		}
		part := &parts[int(t0.Sub(start)*time.Duration(nparts)/d)]
		part.Attempted++
		if err != nil {
			part.Failed++
			dur = failedLatency
		}
		part.Lat[op.Kind] = append(part.Lat[op.Kind], dur)
		if traced {
			spans = append(spans, span{ID: id<<40 | seq, Phase: 'A', Layer: lClient, Kind: op.Kind, Start: t0, Dur: dur})
		}
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the machine's steal time so far over its vCPU count, read
// from /proc/stat (USER_HZ = 100 ticks per second), or 0 where there is
// no /proc/stat.
func stealTime() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	var ticks int64
	ncpu := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0:
		case len(fields) > 8 && fields[0] == "cpu":
			ticks, _ = strconv.ParseInt(fields[8], 10, 64)
		case strings.HasPrefix(fields[0], "cpu"):
			ncpu++
		}
	}
	if ncpu == 0 {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond / time.Duration(ncpu)
}

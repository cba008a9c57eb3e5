package main

import (
	"math"
	"sort"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/workload"
)

// pct is one percentile of a latency sample set together with the number
// of samples it was taken over, so a reader can tell a p99 backed by
// thousands of samples from one backed by a handful.
type pct struct {
	Value time.Duration
	N     int
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
// An empty set yields N = 0, which callers report as absent.
func percentile(sorted []time.Duration, q float64) pct {
	n := len(sorted)
	if n == 0 {
		return pct{}
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return pct{Value: sorted[i], N: n}
}

// quantile of sorted values (0 <= q <= 1), interpolating linearly between
// the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// median of sorted values.
func median(sorted []float64) float64 { return quantile(sorted, 0.5) }

// sortDurations sorts in place and returns its argument.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// series names one counter or histogram in the process-global registry.
type series struct {
	name   string
	labels []string
}

// counterSnap is the value of a fixed set of registry counters at one
// instant. The registry is process-global and cumulative — preload, warm-up
// and earlier phases all land in it — so every ratio the benchmark reports
// is taken over the difference of two snapshots bracketing the measured
// window, never over the raw totals.
type counterSnap map[string]int64

func (s series) key() string {
	k := s.name
	for _, l := range s.labels {
		k += "," + l
	}
	return k
}

func snapshotCounters(reg *metrics.Registry, set []series) counterSnap {
	snap := make(counterSnap, len(set))
	for _, s := range set {
		snap[s.key()] = reg.Counter(s.name, s.labels...).Value()
	}
	return snap
}

// delta returns after - before for every series present in after.
func delta(before, after counterSnap) counterSnap {
	d := make(counterSnap, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio is a per-window quotient reported together with its base, so that
// "2.0 forwards per put" can be read as "9512 forwards over 4756 puts".
type ratio struct {
	Value float64
	Num   int64
	Den   int64
	// Absent marks a ratio whose base is zero: the window did not exercise
	// the layer at all, which is different from exercising it and counting
	// zero events.
	Absent bool
}

// newRatio divides num by den, scaled (1000 for "per kop").
func newRatio(num, den int64, scale float64) ratio {
	if den <= 0 {
		return ratio{Num: num, Den: den, Absent: true}
	}
	return ratio{Value: float64(num) * scale / float64(den), Num: num, Den: den}
}

// histSnap is a histogram's count and sum at one instant.
type histSnap struct {
	Count int64
	Sum   time.Duration
}

func snapshotHist(reg *metrics.Registry, s series) histSnap {
	h := reg.Histogram(s.name, s.labels...)
	return histSnap{Count: h.Count(), Sum: h.Sum()}
}

// windowMean is the mean observation between two snapshots of one
// histogram, with the window's observation count as its base.
func windowMean(before, after histSnap) ratio {
	n := after.Count - before.Count
	sum := after.Sum - before.Sum
	if n <= 0 {
		return ratio{Den: n, Absent: true}
	}
	return ratio{Value: float64(sum) / float64(n) / 1e3, Num: int64(sum), Den: n}
}

// Layer names of the peel, in call order from the caller downwards.
const (
	lClient    = "client"
	lControlet = "controlet"
	lDLM       = "dlm"
	lLog       = "sharedlog"
	lDatalet   = "datalet"
	lTransport = "transport"
	lWire      = "wire"
	lStore     = "store"
)

// peelP50 holds the unloaded p50 of every layer entry point for one op
// kind, in microseconds. A zero field with its uses flag false is a layer
// the workload's op path does not touch.
type peelP50 struct {
	Client, Controlet, Datalet float64
	// Transport is one echo round trip of request- and response-sized
	// frames; Wire is encode plus decode of one request and one response.
	Transport, Wire float64
	Store           float64
	// DLM is lock plus unlock; Log is one shared-log append.
	DLM, Log         float64
	UsesDLM, UsesLog bool
}

// ledgerLine is one additive share of the client-level p50.
type ledgerLine struct {
	Name string
	Us   float64
}

// ledger splits the unloaded client p50 into additive shares. Each layer's
// self time is its p50 minus the p50s of what it calls:
//
//	client    = client.self + controlet
//	controlet = hop + controlet.self + datalet [+ dlm] [+ sharedlog]
//	datalet   = hop + datalet.self + store
//	hop       = transport + wire
//
// so the lines telescope back to the client p50 exactly. Percentiles do
// not add, so a self time can come out negative when a child's p50 exceeds
// its share of the parent's; that is reported, not clamped.
func ledger(p peelP50) []ledgerLine {
	hop := p.Transport + p.Wire
	ctlSelf := p.Controlet - hop - p.Datalet
	lines := []ledgerLine{
		{lClient + ".self", p.Client - p.Controlet},
		{"hop(client->controlet)." + lTransport, p.Transport},
		{"hop(client->controlet)." + lWire, p.Wire},
	}
	var below []ledgerLine
	if p.UsesDLM {
		ctlSelf -= p.DLM
		below = append(below, ledgerLine{lDLM, p.DLM})
	}
	if p.UsesLog {
		ctlSelf -= p.Log
		below = append(below, ledgerLine{lLog, p.Log})
	}
	lines = append(lines, ledgerLine{lControlet + ".self", ctlSelf})
	lines = append(lines, below...)
	return append(lines,
		ledgerLine{"hop(controlet->datalet)." + lTransport, p.Transport},
		ledgerLine{"hop(controlet->datalet)." + lWire, p.Wire},
		ledgerLine{lDatalet + ".self", p.Datalet - hop - p.Store},
		ledgerLine{lStore, p.Store},
	)
}

// selfOf returns the self time of the named layer from a ledger.
func selfOf(lines []ledgerLine, layer string) float64 {
	for _, l := range lines {
		if l.Name == layer+".self" {
			return l.Us
		}
	}
	return 0
}

// sumLedger adds the ledger's lines.
func sumLedger(lines []ledgerLine) float64 {
	var s float64
	for _, l := range lines {
		s += l.Us
	}
	return s
}

// mergeParts groups adjacent parts so that each group holds at least minN
// samples of kind; a short tail is folded into the last group. If all
// parts together hold fewer than minN, they form one group.
func mergeParts(parts []window, kind workload.Kind, minN int) []window {
	var out []window
	var cur window
	for _, p := range parts {
		cur.Elapsed += p.Elapsed
		cur.CPU += p.CPU
		cur.Steal += p.Steal
		cur.merge(p)
		if len(cur.Lat[kind]) >= minN {
			out = append(out, cur)
			cur = window{}
		}
	}
	if cur.Attempted > 0 || cur.Elapsed > 0 {
		if len(out) == 0 {
			return []window{cur}
		}
		last := &out[len(out)-1]
		last.Elapsed += cur.Elapsed
		last.CPU += cur.CPU
		last.Steal += cur.Steal
		last.merge(cur)
	}
	return out
}

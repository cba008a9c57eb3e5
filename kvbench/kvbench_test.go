package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/workload"
)

func TestPercentileWithCount(t *testing.T) {
	var d []time.Duration
	for i := 100; i >= 1; i-- {
		d = append(d, time.Duration(i))
	}
	sortDurations(d)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		got := percentile(d, c.q)
		if got.Value != c.want || got.N != 100 {
			t.Errorf("p%v = %v (n=%d), want %v (n=100)", c.q*100, got.Value, got.N, c.want)
		}
	}
	if got := percentile(nil, 0.5); got.N != 0 || got.Value != 0 {
		t.Errorf("empty set: %+v, want zero with n=0", got)
	}
	// A failed op is recorded at failedLatency and must land in the tail.
	tail := sortDurations(append(append([]time.Duration(nil), d...), failedLatency))
	if got := percentile(tail, 1); got.Value != failedLatency || got.N != 101 {
		t.Errorf("failed op not in the tail: %+v", got)
	}
}

func TestMergeParts(t *testing.T) {
	// Ten one-second parts with 400 GETs each: groups of three parts reach
	// 1000 samples, and the tenth part folds into the last group.
	parts := make([]window, 10)
	for i := range parts {
		parts[i] = window{Elapsed: time.Second, Attempted: 400, CPU: time.Millisecond, Steal: 100 * time.Millisecond, Lat: [2][]time.Duration{make([]time.Duration, 400), nil}}
	}
	got := mergeParts(parts, workload.Get, 1000)
	if len(got) != 3 {
		t.Fatalf("got %d groups, want 3", len(got))
	}
	var total int64
	for i, g := range got {
		total += g.Attempted
		if len(g.Lat[workload.Get]) < 1000 {
			t.Errorf("group %d holds %d samples, want >= 1000", i, len(g.Lat[workload.Get]))
		}
		n := time.Duration(g.Attempted / 400)
		if g.Elapsed != n*time.Second || g.CPU != n*time.Millisecond || g.run() != n*900*time.Millisecond {
			t.Errorf("group %d: elapsed %v cpu %v run %v for %d ops", i, g.Elapsed, g.CPU, g.run(), g.Attempted)
		}
	}
	if total != 4000 {
		t.Errorf("groups hold %d ops, want all 4000", total)
	}
	if got := mergeParts(parts[:2], workload.Get, 1000); len(got) != 1 || got[0].Attempted != 800 {
		t.Errorf("too few samples for one full group: %d groups", len(got))
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	five := []float64{10, 20, 30, 40, 50}
	if lo, hi := quantile(five, 0.25), quantile(five, 0.75); lo != 20 || hi != 40 {
		t.Errorf("quartiles = %v, %v, want 20, 40", lo, hi)
	}
	// Interference only slows a part down, so a time is read at the lower
	// quartile of its parts; a rate over unstolen time at the median.
	parts = []window{{Attempted: 50}, {Attempted: 10}, {Attempted: 40}, {Attempted: 20}, {Attempted: 30}}
	byOps := func(x window) float64 { return float64(x.Attempted) }
	if m := partMetric("t", "us", atLowerQuartile, 150, window{}, parts, byOps); m.Value != 20 || !strings.Contains(m.Base, "5 parts") {
		t.Errorf("time metric = %+v, want the lower quartile 20", m)
	}
	if m := partMetric("r", "kop/s", atMedian, 150, window{}, parts, byOps); m.Value != 30 {
		t.Errorf("rate metric = %+v, want the median 30", m)
	}
	// A part's run time is its length less its steal.
	if got := (window{Elapsed: time.Second, Steal: 400 * time.Millisecond}).run(); got != 600*time.Millisecond {
		t.Errorf("run() = %v, want 600ms", got)
	}
}

func TestLedgerTelescopes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := peelP50{
			Client: r.Float64() * 200, Controlet: r.Float64() * 150, Datalet: r.Float64() * 10,
			Transport: r.Float64() * 3, Wire: r.Float64(), Store: r.Float64() * 2,
			DLM: r.Float64() * 60, Log: r.Float64() * 50,
			UsesDLM: r.Intn(2) == 0, UsesLog: r.Intn(2) == 0,
		}
		lines := ledger(p)
		if s := sumLedger(lines); math.Abs(s-p.Client) > 1e-9 {
			t.Fatalf("ledger %+v sums to %v, want client p50 %v", lines, s, p.Client)
		}
		var sawDLM, sawLog bool
		for _, l := range lines {
			sawDLM = sawDLM || l.Name == lDLM
			sawLog = sawLog || l.Name == lLog
		}
		if sawDLM != p.UsesDLM || sawLog != p.UsesLog {
			t.Fatalf("ledger lines %+v for uses dlm=%v log=%v", lines, p.UsesDLM, p.UsesLog)
		}
		// The controlet's own time excludes exactly the parts it calls.
		want := p.Controlet - p.Transport - p.Wire - p.Datalet
		if p.UsesDLM {
			want -= p.DLM
		}
		if p.UsesLog {
			want -= p.Log
		}
		if got := selfOf(lines, lControlet); math.Abs(got-want) > 1e-9 {
			t.Fatalf("controlet self %v, want %v", got, want)
		}
	}
}

func TestAbsentLayers(t *testing.T) {
	if r := newRatio(5, 0, 1); !r.Absent {
		t.Errorf("ratio over a zero base = %+v, want absent", r)
	}
	if r := newRatio(0, 40, 1000); r.Absent || r.Value != 0 {
		t.Errorf("zero events over a real base = %+v, want present 0", r)
	}
	if r := windowMean(histSnap{Count: 7, Sum: 70}, histSnap{Count: 7, Sum: 70}); !r.Absent {
		t.Errorf("histogram with no observations in the window = %+v, want absent", r)
	}
	if r := windowMean(histSnap{Count: 7, Sum: 700}, histSnap{Count: 9, Sum: 4700}); r.Absent || r.Value != 2 || r.Den != 2 {
		t.Errorf("window mean = %+v, want 2us over 2 observations", r)
	}

	res := result{Correct: true, Attempted: 1, Metrics: []metric{
		{Name: "dlm.lock_us", Unit: "us", Absent: true},
		{Name: "client.get_us", Value: 9.5, Unit: "us", Base: "n=10"},
		{Name: "get_p99_us", Value: 120, Unit: "us", Unbounded: true},
	}}
	res.add(metric{Name: "process.gc_cpu_frac", Value: math.NaN(), Unit: "frac"})
	if m := res.Metrics[len(res.Metrics)-1]; !m.Absent || m.Value != 0 {
		t.Errorf("a NaN quotient was recorded as %+v, want absent", m)
	}
	var out bytes.Buffer
	res.print(&out)
	if !strings.Contains(out.String(), "dlm.lock_us") || !strings.Contains(out.String(), "absent") {
		t.Errorf("printed table does not mark the absent layer:\n%s", out.String())
	}
	line, err := res.summary()
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &sum); err != nil {
		t.Fatal(err)
	}
	if m, ok := sum.Metrics["dlm.lock_us"]; !ok || m.Value != 0 || m.Unit != "us" {
		t.Errorf("summary line must still name the absent metric: %s", line)
	}
	if _, ok := sum.Metrics["get_p99_us"]; ok || !strings.Contains(out.String(), "get_p99_us") {
		t.Errorf("an unbounded metric is printed but kept out of the summary line: %s", line)
	}
}

func TestCounterDelta(t *testing.T) {
	reg := metrics.NewRegistry()
	plain := series{name: "x_total"}
	labeled := series{name: "y_total", labels: []string{"layer", "controlet"}}
	set := []series{plain, labeled}
	reg.Counter("x_total").Add(100) // earlier phases: must not leak in
	reg.Counter("y_total", "layer", "datalet").Add(50)
	before := snapshotCounters(reg, set)
	reg.Counter("x_total").Add(7)
	reg.Counter("y_total", "layer", "controlet").Add(3)
	reg.Counter("y_total", "layer", "datalet").Add(1000)
	d := delta(before, snapshotCounters(reg, set))
	if d[plain.key()] != 7 || d[labeled.key()] != 3 {
		t.Errorf("delta = %v, want x=7 y{controlet}=3", d)
	}
	if r := newRatio(d[plain.key()], 2, 1000); r.Value != 3500 || r.Num != 7 || r.Den != 2 {
		t.Errorf("per-kop ratio = %+v, want 3500 with base 7/2", r)
	}
}

func TestCheckerRejectsCorruptValues(t *testing.T) {
	w, err := lookupSpec("durable-ingest-aaec")
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker(w, 42)
	key := keyBytes(1234)
	good := chk.expected(1234)
	if !chk.valid(key, good, true) {
		t.Fatal("well-formed value rejected")
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 1
	short := good[:len(good)-1]
	other := chk.expected(1235)
	for name, v := range map[string][]byte{"flipped": flipped, "short": short, "other key's": other, "sentinel before it was written": chk.sentinelValue(1234)} {
		if chk.valid(key, v, true) {
			t.Errorf("%s value accepted", name)
		}
	}
	if chk.valid(key, good, false) {
		t.Error("missing key accepted: the keyspace is fully preloaded")
	}
	if chk.valid([]byte("x0000000000001234"), good, true) {
		t.Error("malformed key accepted")
	}
	chk.sentinel = map[int]bool{1234: true}
	if !chk.valid(key, chk.sentinelValue(1234), true) || !chk.valid(key, good, true) {
		t.Error("after the sentinel write, both the sentinel and the generated value are valid")
	}
	chk.observe(key, flipped, true)
	if chk.failure() == nil {
		t.Error("observed corrupt value did not fail the check")
	}
}

// The checker's exactness rests on the generator writing one fixed value
// per key; pin that here so a generator change fails this test instead of
// every benchmark run.
func TestGeneratorValuesAreWellFormed(t *testing.T) {
	for _, w := range workloads {
		chk := newChecker(w, 7)
		gen, err := w.generator(7, 0)
		if err != nil {
			t.Fatal(err)
		}
		puts := 0
		for i := 0; i < 5000; i++ {
			op := gen.Next()
			if op.Kind != workload.Put {
				continue
			}
			puts++
			if !chk.valid(op.Key, op.Value, true) {
				t.Fatalf("%s: generated PUT %q=%q is not the checker's value", w.name, op.Key, op.Value)
			}
		}
		if puts == 0 {
			t.Fatalf("%s: no PUTs generated", w.name)
		}
	}
}

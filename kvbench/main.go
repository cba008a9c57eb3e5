// Command kvbench is the repository's benchmark: it runs one named
// closed-loop workload against an in-process bespokv cluster, checks every
// value it reads, and prints every end-to-end metric (or, with --trace 1,
// every per-layer metric) by name, unit and sample count. Its last line
// of output is one JSON object with the run's verdict and metrics.
//
//	kvbench --workload read-mostly-mssc --seed 1 --seconds 25 --trace 0
//
// README.md explains the workloads, the metrics and the traced run.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"bespokv/internal/workload"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "measured seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer run")
		outDir  = flag.String("out", filepath.Join(".bench_build", "kvbench"), "directory for the run record and span file")
		gitRev  = flag.String("git-rev", "unknown", "source revision, for the run stamp")
		srcSum  = flag.String("src-digest", "unknown", "digest of the source tree, for the run stamp")
	)
	flag.Parse()
	w, err := lookupSpec(*name)
	if err == nil && (*seconds < 1 || (*traced != 0 && *traced != 1)) {
		err = errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(2)
	}
	st := newStamp(w.name, *seed, *gitRev, *srcSum)
	fmt.Printf("stamp: %s\n", st)

	var r *result
	if *traced == 1 {
		r, err = runTraced(w, *seed, time.Duration(*seconds)*time.Second)
	} else {
		r, err = runPlain(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(2)
	}
	r.print(os.Stdout)
	if err := r.writeRecord(st, *outDir, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(2)
	}
	line, err := r.summary()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(2)
	}
	fmt.Println(line)
	if !r.Correct {
		os.Exit(1)
	}
}

// stamp is the machine and run facts every record carries, so results are
// only ever compared with results from the same box.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	SrcDigest  string `json:"src_digest"`
	Time       string `json:"time"`
}

func newStamp(workload string, seed int64, rev, digest string) stamp {
	return stamp{
		Workload:   workload,
		Seed:       seed,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     rev,
		SrcDigest:  digest,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func (s stamp) String() string {
	b, _ := json.Marshal(s)
	return string(b)
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one reported figure. Base is the sample count or the ratio's
// numerator and denominator; Absent marks a layer the workload does not
// exercise; Unbounded marks a figure that is printed and recorded but left
// out of the summary line, because it is too sensitive to the machine's
// neighbours to carry a regression bound (see README.md).
type metric struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	Base      string  `json:"base,omitempty"`
	Absent    bool    `json:"absent,omitempty"`
	Unbounded bool    `json:"unbounded,omitempty"`
}

// result is one run's outcome.
type result struct {
	Correct   bool                    `json:"correct"`
	Problem   string                  `json:"problem,omitempty"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   []metric                `json:"metrics"`
	Ledger    map[string][]ledgerLine `json:"ledger,omitempty"`
	Spans     []span                  `json:"-"`
}

// add appends m. A quotient over an empty window (NaN or ±Inf) is not a
// measurement; it is recorded as absent.
func (r *result) add(m metric) {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		m.Value, m.Absent = 0, true
	}
	r.Metrics = append(r.Metrics, m)
}

// fail records a correctness failure; the run still reports its metrics.
func (r *result) fail(err error) {
	if r.Correct {
		r.Correct = false
		r.Problem = err.Error()
	}
}

func (r *result) print(out io.Writer) {
	if !r.Correct {
		fmt.Fprintf(out, "CORRECTNESS FAILURE: %s\n", r.Problem)
	}
	fmt.Fprintf(out, "ops attempted %d, failed %d, error_frac %g\n", r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, m := range r.Metrics {
		if m.Absent {
			fmt.Fprintf(out, "%-34s absent (layer not exercised by this workload)\n", m.Name)
			continue
		}
		note := ""
		if m.Unbounded {
			note = " [unbounded]"
		}
		fmt.Fprintf(out, "%-34s %14.4f %-6s %s%s\n", m.Name, m.Value, m.Unit, m.Base, note)
	}
	kinds := make([]string, 0, len(r.Ledger))
	for k := range r.Ledger {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		lines := r.Ledger[k]
		fmt.Fprintf(out, "ledger %s (unloaded p50, us; sums to %.3f):\n", k, sumLedger(lines))
		for _, l := range lines {
			fmt.Fprintf(out, "  %-34s %9.3f\n", l.Name, l.Us)
		}
	}
}

// summary renders the final output line from every bounded metric. An
// absent layer carries value 0 there, since that line must name every
// metric; the printed table and the record mark it absent.
func (r *result) summary() (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.Metrics))
	for _, m := range r.Metrics {
		if !m.Unbounded {
			ms[m.Name] = val{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	return string(b), err
}

// writeRecord saves the stamped result and, for a traced run, the span
// file (tab-separated, one span per line, header first).
func (r *result) writeRecord(st stamp, dir string, traced int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record dir: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", st.Workload, st.Seed, traced))
	b, err := json.MarshalIndent(struct {
		Stamp  stamp   `json:"stamp"`
		Result *result `json:"result"`
	}{st, r}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	fmt.Printf("record: %s.json\n", base)
	if traced == 0 {
		return nil
	}
	// One span file per workload, overwritten by each traced run: a
	// read-mostly run leaves ~1.5M spans (~65 MB), too many to keep per seed.
	spans := filepath.Join(dir, st.Workload+".spans.tsv")
	if err := writeSpans(spans, r.Spans); err != nil {
		return err
	}
	fmt.Printf("spans: %s (%d spans, from seed %d)\n", spans, len(r.Spans), st.Seed)
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(bw, "id\tparent\tphase\tlayer\top\tstart_ns\tdur_ns")
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].Start
	}
	for _, s := range spans {
		op := "GET"
		if s.Kind == workload.Put {
			op = "PUT"
		}
		fmt.Fprintf(bw, "%d\t%d\t%c\t%s\t%s\t%d\t%d\n", s.ID, s.Parent, s.Phase, s.Layer, op, s.Start.Sub(t0).Nanoseconds(), s.Dur.Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

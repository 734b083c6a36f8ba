// Command perfbench is dproc's end-to-end benchmark. It forms an in-process
// dproc cluster over loopback TCP on the real clock, drives it with an
// open-loop report generator, a closed-loop capacity phase and a closed-loop
// queryall client, checks every delivery and query answer, and prints the
// metrics as one JSON object on the last line.
//
//	bash perfbench/run.sh --workload mesh-fanout --seed 1 --seconds 30 --trace 0
//
// --trace 1 traces half of the paced phase and the query probe and prints
// the per-layer metrics; spans are written to --spans. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named, unit-carrying figure of the output.
type metric struct {
	name  string
	unit  string
	value float64
}

// outcome is the run's verdict and figures.
type outcome struct {
	correct   bool
	problems  []string
	attempted int64
	failed    int64
	metrics   []metric
	notes     []string // extra human-readable lines (sample counts, breakdowns)
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, finite(v)})
}

func (o *outcome) problem(format string, args ...any) {
	o.correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed: host levels and noise derive from it")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := flag.String("spans", "", "span dump path for --trace 1 (default .bench_build/spans-<workload>.tsv)")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *spans == "" {
		*spans = ".bench_build/spans-" + w.name + ".tsv"
	}
	out, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *trace)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, m := range out.metrics {
		fmt.Printf("%-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	line, err := resultJSON(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(line)
	if !out.correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// resultJSON renders the final line: correct, attempted, failed, metrics.
func resultJSON(o *outcome) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(o.metrics))
	for _, m := range o.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.correct, o.attempted, o.failed, ms})
	return string(buf), err
}

// setupRuns is how many times a run forms the cluster; setup_s is the
// median. The last formation is the one measured.
const setupRuns = 5

// settleQuiet is how long the measured cluster's channels must go without
// a dial before traffic starts (see settle): over two reconnect-supervisor
// passes at the default 250 ms interval.
const settleQuiet = 600 * time.Millisecond

// Phase shares of --seconds: the paced phase, the query probe (workloads
// without a concurrent query client) and, the rest, the closed-loop
// capacity phase. A traced run splits the paced share between an untraced
// and a traced half.
const (
	pacedShare = 0.60
	probeShare = 0.20
)

// run executes one benchmark run: form the cluster, warm up, measure, and
// check. Untraced, the phases are warm-up, paced (end-to-end figures), then
// query probe and capacity in alternating slices. Traced, the paced share is
// split into an untraced and a traced half (per-layer figures), followed by
// a traced probe and the capacity slices.
func run(w workload, seed int64, total time.Duration, traced bool, spansPath string) (*outcome, error) {
	noiseSeed, hosts := deriveHosts(seed, w.nodes)
	var setups []float64
	var f *formed
	for i := 0; i < setupRuns; i++ {
		ff, d, err := formCluster(w, noiseSeed, hosts)
		if err != nil {
			return nil, fmt.Errorf("forming %s cluster: %w", w.name, err)
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			ff.close()
		} else {
			f = ff
		}
	}
	defer f.close()
	if err := settle(f.cluster, settleQuiet, 10*time.Second); err != nil {
		return nil, err
	}
	b := newBench(w, f)

	paced := time.Duration(float64(total) * pacedShare).Round(time.Second)
	probe := time.Duration(float64(total) * probeShare)
	capDur := total - paced - probe
	if traced {
		paced = max(time.Second, (paced / 2).Round(time.Second))
	}
	t0 := b.now() + int64(20*time.Millisecond)
	// marks are the phase boundaries: the paced phase's start and end and,
	// traced, the end of the traced half.
	warmEnd := t0 + int64(w.warmup)
	pacedEnd := warmEnd + int64(paced)
	marks := []int64{warmEnd, pacedEnd}
	if traced {
		marks = append(marks, pacedEnd+int64(paced))
	}
	snaps := make([]snap, len(marks))
	onBoundary := func(i int) {
		snaps[i] = b.snapshot(true)
		if traced && i == 1 {
			b.tracing = true
		}
	}
	noTrace := int64(1) << 62
	var qrecs []queryRec
	done := make(chan struct{})
	if w.queries {
		// Queries start once the window is full: the warm-up is as long.
		tracedFrom := noTrace
		if traced {
			tracedFrom = pacedEnd
		}
		go func() {
			defer close(done)
			qrecs = b.queryLoop(warmEnd, marks[len(marks)-1], tracedFrom)
		}()
	} else {
		close(done)
	}
	genErr := b.paced(t0, marks, onBoundary)
	b.tracing = false
	<-done
	if genErr != nil {
		return nil, genErr
	}
	b.drain(3 * time.Second)
	heap := b.liveHeap()
	tsdbStats := b.tsdbStats()

	out := &outcome{correct: true}
	b.probeMark = b.watermark.Load()
	// qWins are the windows whose queries the untraced query figures cover:
	// the paced phase on query-mix, the probe slices elsewhere.
	var qWins, capWins []window
	if w.queries {
		qWins = []window{{warmEnd, pacedEnd}}
	}
	if traced && !w.queries {
		start := b.now()
		qrecs = b.queryLoop(start, start+int64(probe), start)
	}
	// The probe and the capacity phase alternate in slices of about a
	// second, so each samples the whole last part of the run rather than
	// one stretch of it: the shared host's speed drifts by tens of percent
	// from one few-second stretch to the next. Each slice starts after a
	// forced, untimed GC, so no slice pays for the garbage of the one
	// before. A traced run has run its probe already.
	n := max(1, int(capDur/time.Second))
	for i := 0; i < n; i++ {
		if !w.queries && !traced {
			runtime.GC()
			start := b.now()
			end := start + int64(probe)/int64(n)
			qrecs = append(qrecs, b.queryLoop(start, end, noTrace)...)
			qWins = append(qWins, window{start, end})
		}
		runtime.GC()
		start := b.now()
		if err := b.closedLoop(capDur / time.Duration(n)); err != nil {
			return nil, err
		}
		capWins = append(capWins, window{start, b.now()})
		b.drain(3 * time.Second)
	}
	final := b.snapshot(false)
	v := b.verify(out)
	b.checkQueries(out, qrecs)
	if b.empty > 0 {
		out.notes = append(out.notes, fmt.Sprintf("polls without a report %d", b.empty))
	}
	if traced {
		b.perLayer(out, v, [3]snap{snaps[0], snaps[1], snaps[2]}, final, qrecs, capWins, tsdbStats, spansPath)
	} else {
		b.endToEnd(out, v, snaps, capWins, heap, setups, qrecs, qWins)
	}
	return out, nil
}

// tsdbTotals sums the history stores' footprint over the cluster.
type tsdbTotals struct {
	samples, bytes int
	dropped        uint64
}

func (b *bench) tsdbStats() tsdbTotals {
	var t tsdbTotals
	for _, n := range b.nodes {
		st := n.DMon().Store().TSDB().Stats()
		t.samples += st.Samples
		t.bytes += st.Bytes
		t.dropped += st.Dropped
	}
	return t
}

// sortedKeys lists a distance histogram's keys in order.
func sortedKeys(m map[int][]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Command perfbench is the repository benchmark. One invocation runs one
// named workload through the system's public layer APIs, checks the
// workload's output against a reference, and prints every metric as a
// single JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload collect --seed 1 --seconds 20 --trace 0
//
// The seed is the only source of the workload's inputs: the gtpsim
// configuration, the per-day query store and the ViewSpec mix derive from
// it (ship and analyze start from one fixed capture, see
// fixedCaptureSeed), and the program only ever sees the generated inputs. With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// records spans around every layer call, reports the per-layer
// breakdown plus the tracing overhead, and writes the spans to the work
// directory at exit. METRICS.md lists every metric and the end-to-end
// metric each layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// scale sizes a run. The benchmark runs at defaultScale; the smoke
// test shrinks it.
type scale struct {
	// Sessions is the gtpsim session count of one simulated week:
	// collect captures them in one run, ship splits them between two
	// half-week probes, query stores them as seven day files, analyze
	// snapshots them.
	Sessions int
	// Specs is how many distinct ViewSpecs the query mix holds.
	Specs int
	// Clients is the closed-loop query client count and the engine
	// concurrency: one per CPU.
	Clients int
	// SampleFrames caps the frames a traced run keeps for the pkt, dpi
	// and probe per-call measurements.
	SampleFrames int
	// IDs restricts the analyze workload to these experiments; nil runs
	// the whole registry.
	IDs []string
}

var defaultScale = scale{
	Sessions:     20000,
	Specs:        192,
	Clients:      runtime.NumCPU(),
	SampleFrames: 50000,
}

// workload is one named input set. why records the reason it exists.
type workload struct {
	name string
	why  string
	// setups is how many times a run repeats set-up; setup_s is the
	// median.
	setups int
	run    func(b *bench) (*outcome, error)
}

var workloads = []workload{
	{name: "collect", why: whyCollect, setups: 25, run: runCollect},
	{name: "ship", why: whyShip, setups: 3, run: runShip},
	{name: "query", why: whyQuery, setups: 3, run: runQuery},
	{name: "analyze", why: whyAnalyze, setups: 3, run: runAnalyze},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is the state one run shares with its workload.
type bench struct {
	seed    uint64
	seconds time.Duration
	dir     string // scratch directory owned by this run
	sc      scale
	setups  int
	// tr is nil in untraced runs.
	tr *tracer
	// layers collects the per-layer metric values of a traced run.
	layers map[string]float64
	log    io.Writer
}

// outcome is what a workload measured.
type outcome struct {
	// setup holds one duration per set-up repetition.
	setup []time.Duration
	// throughput is work units per wall second (frames, queries or
	// engine runs), the median over the timed phase.
	throughput float64
	unit       string
	// latencies are per-operation latencies in milliseconds.
	latencies []float64
	latName   string
	attempted int64
	failed    int64
	// peakRSS is the peak resident memory of the timed phase, in MB.
	peakRSS float64
	// untracedThroughput is, in a traced run, the throughput of the
	// same work measured with tracing off in the same process.
	untracedThroughput float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-8s %s\n", w.name, w.why)
		}
		fmt.Fprintf(stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	name := fs.String("workload", "", "workload to run: collect, ship, query or analyze")
	seed := fs.Uint64("seed", 1, "seed every input of the workload derives from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores, spools and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir, defaultScale, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload runs w once and assembles its result. A failed output
// check is reported in the result (correct=false, failed>0); an error
// means the run could not measure at all.
func runWorkload(w workload, seed uint64, seconds time.Duration, traced bool, workdir string, sc scale, log io.Writer) (*result, error) {
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{seed: seed, seconds: seconds, dir: dir, sc: sc, setups: w.setups, log: log}
	if traced {
		b.tr = newTracer()
		b.layers = map[string]float64{}
	}
	out, err := w.run(b)
	if err != nil {
		return nil, err
	}
	if out.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	report(log, w.name, out)
	if !traced {
		for name, v := range endToEnd(out) {
			res.Metrics[name] = v
		}
		return res, nil
	}
	overhead := 0.0
	if out.throughput > 0 {
		overhead = (out.untracedThroughput/out.throughput - 1) * 100
	}
	b.layers["trace.overhead_pct"] = overhead
	b.layers["trace.spans"] = float64(b.tr.spanCount())
	for name, self := range b.tr.selfTimes() {
		fmt.Fprintf(log, "  self %-28s %10.3f ms per span (%d spans)\n", name, self.Seconds*1e3/float64(self.Spans), self.Spans)
	}
	tracePath := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := b.tr.writeFile(tracePath); err != nil {
		return nil, err
	}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metricValue{Value: b.layers[m.name], Unit: m.unit}
	}
	names := make([]string, 0, len(b.layers))
	for n := range b.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, known := res.Metrics[n]; !known {
			return nil, fmt.Errorf("layer metric %q is not in the layer table", n)
		}
		fmt.Fprintf(log, "  layer %-36s %s\n", n, strconv.FormatFloat(b.layers[n], 'g', 6, 64))
	}
	return res, nil
}

// endToEnd maps an outcome onto the end-to-end metrics every workload
// reports.
func endToEnd(out *outcome) map[string]metricValue {
	secs := make([]float64, len(out.setup))
	for i, d := range out.setup {
		secs[i] = d.Seconds()
	}
	_, tail := tailPercentile(out.latencies)
	return map[string]metricValue{
		"throughput_per_s": {Value: out.throughput, Unit: "1/s"},
		"latency_p50_ms":   {Value: median(out.latencies), Unit: "ms"},
		"latency_tail_ms":  {Value: tail, Unit: "ms"},
		"setup_s":          {Value: median(secs), Unit: "s"},
		"peak_rss_mb":      {Value: out.peakRSS, Unit: "MB"},
	}
}

// report prints the human-readable summary, with the workload's own
// names for the generic metrics and the latency sample count.
func report(log io.Writer, name string, out *outcome) {
	m := endToEnd(out)
	p, _ := tailPercentile(out.latencies)
	fmt.Fprintf(log, "%s: %.1f %s/s; %s p50 %.3f ms, tail (p%g) %.3f ms, n=%d; setup %.3f s (median of %d); peak RSS %.1f MB; %d attempted, %d failed\n",
		name, m["throughput_per_s"].Value, out.unit, out.latName, m["latency_p50_ms"].Value, p*100, m["latency_tail_ms"].Value,
		len(out.latencies), m["setup_s"].Value, len(out.setup), m["peak_rss_mb"].Value, out.attempted, out.failed)
}

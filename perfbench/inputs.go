package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/probe"
	"repro/internal/rollup"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// Why each workload exists. BENCHMARK.json carries the one-line form.
const (
	whyCollect = "probesim's path in one process: a full-week gtpsim stream through a 1-shard probe.Pipeline, " +
		"rollup.Collector and rollup.WriteFile. gtpsim, pkt, dpi, probe and rollup do nearly all the work and " +
		"epochwire, catalog and the analysis none, so it is the bypass case for changes to those. One shard is " +
		"the single-threaded baseline, faster and steadier than two on 2 vCPUs."
	whyShip = "probed x2 + aggd in one process over loopback: two 1-shard probes capture disjoint half-week " +
		"windows of one seed in set-up; each timed run replays their sealed epochs through Shipper.SealHook to one " +
		"Aggregator with a state file at the default persist cadence, which drains to a snapshot. The only " +
		"workload where epochwire works: spool append, wire ship/ack, aggd fold/persist, whose cost grows with " +
		"state. It merges message by message where collect merges once at Finish."
	whyQuery = "a closed loop of one client per CPU over a 7-file per-day v2 store built in set-up, asking a " +
		"seeded ViewSpec mix (1 bin to the whole week, 1 to all services, some commune filters). It reads the " +
		"store instead of writing it: catalog pruning plus rollup seek-decode, no gtpsim or probe work, so a " +
		"codec change that helps writes but hurts reads shows here and not in collect."
	whyAnalyze = "the analyze -snapshot path: open a week snapshot built in set-up and run Engine.Run over the " +
		"registry at one worker per CPU. The only workload that runs measured, core, experiments, kshape, dsp, " +
		"stats and peaks; fig5's k-Shape sweep dominates it."
)

// The ship and analyze workloads' inputs do not vary with the benchmark
// seed: both always start from the capture of fixedCaptureSeed.
//
// ship: the aggregator's cost per message grows with its state, and
// how many epoch generations a capture seals depends on its data
// (late frames reopen sealed bins). Over five capture seeds the two
// probes sealed 990 to 2018 generations, and the replay shipped 2 800
// to 4 200 of them per second (IQR/median 0.26); one seed repeated five
// times varied by 0.06.
//
// analyze: fig5's k-Shape sweep is nearly all of the workload, and its
// iteration count depends on the data: over ten capture seeds one
// engine run took 18.7 to 28.3 s (IQR/median 0.15), and another k-Shape
// seed moved one snapshot from 18.7 to 32.4 s. It runs at the analyze
// command's default k-Shape seed.
//
// With the input varying that much, no change to those layers smaller
// than the spread could be told from noise.
const (
	fixedCaptureSeed = 1
	engineSeed       = 1
)

// weekBins is the study week on the default 15-minute grid; dayBins
// one calendar day of it.
var (
	weekBins = int(timeseries.Week / timeseries.DefaultStep)
	dayBins  = int(24 * time.Hour / timeseries.DefaultStep)
)

// spillSlackBins mirrors probesim and probed: a windowed probe grid
// covers its window plus the bins a session tail can spill into.
const spillSlackBins = 3

// captureEnv is what every capture shares: geography, catalogue and
// classifier. Building it is the set-up of collect and ship.
type captureEnv struct {
	geoCfg  geo.Config
	country *geo.Country
	catalog []services.Service
	cls     *dpi.Classifier
}

func newCaptureEnv() *captureEnv {
	geoCfg := geo.SmallConfig()
	catalog := services.Catalog()
	return &captureEnv{
		geoCfg:  geoCfg,
		country: geo.Generate(geoCfg),
		catalog: catalog,
		cls:     dpi.NewClassifier(catalog),
	}
}

// captureSpec is one simulated capture: a gtpsim run whose sessions
// start in bins [from, to) of the week, and the probe and rollup grids
// that measure it — what probesim -seed seed -sessions sessions
// -window from:to builds.
type captureSpec struct {
	gcfg gtpsim.Config
	pcfg probe.Config
	rcfg rollup.Config
}

func (e *captureEnv) spec(seed uint64, sessions, from, to int) captureSpec {
	start := timeseries.StudyStart.Add(time.Duration(from) * timeseries.DefaultStep)
	g := gtpsim.DefaultConfig()
	g.Sessions = sessions
	g.Seed = seed
	g.Start = start
	g.Duration = time.Duration(to-from) * timeseries.DefaultStep
	p := probe.ConfigFor(e.country)
	p.Start = start
	p.Bins = min(to+spillSlackBins, weekBins) - from
	return captureSpec{gcfg: g, pcfg: p, rcfg: rollup.ConfigFrom(p, e.geoCfg)}
}

// buildStore writes the query workload's store: one v2 snapshot per
// calendar day of the week, each the capture of that day's share of
// the week's sessions, into dir. It returns the file paths.
func buildStore(e *captureEnv, seed uint64, sessions int, dir string) ([]string, error) {
	days := weekBins / dayBins
	paths := make([]string, 0, days)
	for d := 0; d < days; d++ {
		part, _, _, err := e.capture(e.spec(seed, sessions/days, d*dayBins, (d+1)*dayBins), nil, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("day %d: %w", d, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("day-%d.roll", d))
		if err := rollup.WriteFile(path, part); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// specMix draws the query workload's n ViewSpecs from seed. The mix
// has the same shape for every seed, so that its cost does not swing
// with the seed: spec i is, by i mod 4, a window of one bin, one
// calendar day, a span of spanBins[(i/4) mod 5] bins or the whole
// week; asks for svcCounts[(i/4) mod 6] services; and, when i mod 3 is
// 2, keeps communeCounts[(i/3) mod 3] communes. The seed picks where
// each window lies and which services and communes are named. So every
// mix holds one-day queries the index prunes to a single file and
// whole-week queries that decode every file.
func specMix(seed uint64, n int, names []string, communes int) []rollup.ViewSpec {
	rng := rand.New(rand.NewPCG(seed, 0x71756572)) // "quer"
	spanBins := []int{4, 16, 64, 192, 384}
	svcCounts := []int{len(names), 1, 2, 5, 10, len(names) - 1}
	communeCounts := []int{1, 5, 20}
	days := weekBins / dayBins
	mix := make([]rollup.ViewSpec, n)
	for i := range mix {
		v := &mix[i]
		switch i % 4 {
		case 0:
			v.From = rng.IntN(weekBins)
			v.To = v.From + 1
		case 1:
			d := rng.IntN(days)
			v.From, v.To = d*dayBins, (d+1)*dayBins
		case 2:
			span := spanBins[(i/4)%len(spanBins)]
			v.From = rng.IntN(weekBins - span + 1)
			v.To = v.From + span
		case 3:
			v.From, v.To = 0, 0
		}
		if k := svcCounts[(i/4)%len(svcCounts)]; k < len(names) {
			v.Services = pick(rng, names, k)
		}
		if i%3 == 2 {
			ids := rng.Perm(communes)[:communeCounts[(i/3)%len(communeCounts)]]
			sort.Ints(ids)
			v.Communes = ids
		}
	}
	return mix
}

// pick returns k distinct names in their original order.
func pick(rng *rand.Rand, names []string, k int) []string {
	idx := rng.Perm(len(names))[:k]
	sort.Ints(idx)
	out := make([]string, k)
	for j, i := range idx {
		out[j] = names[i]
	}
	return out
}

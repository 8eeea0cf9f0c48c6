// Command analyze runs the complete study end to end through the
// experiment engine and reports the paper's three key insights with
// the measured values:
//
//  1. services have heterogeneous temporal dynamics (no natural
//     clustering; unique peak calendars);
//  2. services share very similar spatial distributions (high pairwise
//     r², Netflix and iCloud as outliers);
//  3. urbanization drives how much users consume, not when (slope
//     ratios vs temporal correlations; TGV the exception).
//
// With --json the full machine-readable results of every registered
// experiment are written to stdout instead of the human summary.
//
// With -snapshot the dataset comes from a rollup snapshot produced by
// cmd/probesim -snapshot instead of the synthetic generator: the
// produce-once, analyze-many workflow — no simulator, no probe, no raw
// trace between the file and the figures. -window A:B restricts the
// snapshot to a bin subrange (a day, the weekend, the working week) of
// a merged multi-day rollup — see cmd/rollupctl for the merge side —
// -services keeps only the named services, and -ids selects a subset
// of experiments, which slice views usually want (the calendar
// experiments assume a whole study week).
//
// -snapshot also accepts a directory of *.roll files: the catalog
// opens them as one store. Views (-window, -services) route through
// the catalog planner, which uses the v2 footer indexes to decode only
// the epochs the view can touch (stats on stderr); -full-scan forces
// the sequential reference path over a single file instead — both are
// defined to produce identical results.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/catalog"
	"repro/internal/experiments"
	"repro/internal/rollup"
	"repro/internal/synth"
)

// snapshotEnv builds the engine environment from recorded rollups.
// A plain whole file opens directly, counters and the overflow epoch
// intact. A view — -window,
// -services, or a directory store — goes through the catalog planner
// unless -full-scan asks for the sequential reference: read everything,
// ViewSpec.Apply. The two paths are defined (and tested in
// internal/catalog) to produce identical partials.
func snapshotEnv(path, window, svcNames string, fullScan bool, seed uint64) (*experiments.Env, error) {
	var spec rollup.ViewSpec
	hasView := false
	if window != "" {
		var err error
		if spec.From, spec.To, err = rollup.ParseBinRange(window); err != nil {
			return nil, fmt.Errorf("analyze: -window wants A:B bin indices, got %q", window)
		}
		hasView = true
	}
	if svcNames != "" {
		for _, name := range strings.Split(svcNames, ",") {
			if name = strings.TrimSpace(name); name != "" {
				spec.Services = append(spec.Services, name)
			}
		}
		hasView = true
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() && fullScan {
		return nil, fmt.Errorf("analyze: -full-scan reads one snapshot file, not a directory (merge it first: rollupctl merge)")
	}
	switch {
	case !hasView && !fi.IsDir():
		return experiments.NewEnvFromSnapshot(path, seed)
	case fullScan:
		p, err := rollup.ReadFile(path)
		if err != nil {
			return nil, err
		}
		view, err := spec.Apply(p)
		if err != nil {
			return nil, err
		}
		ds, err := view.Dataset()
		if err != nil {
			return nil, err
		}
		return experiments.NewEnvFrom(ds, seed), nil
	default:
		c, err := catalog.Open(path)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		ds, st, err := c.Dataset(spec)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "analyze: planner decoded %d/%d epochs across %d files (%d pruned, %d v1 fallbacks)\n",
			st.EpochsDecoded, st.EpochsTotal, st.Files, st.FilesPruned, st.Fallbacks)
		return experiments.NewEnvFrom(ds, seed), nil
	}
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `analyze: run the paper's full study through the experiment engine

Dataset sources (flag defaults below):
  (default)            synthetic generator at -scale, seeded by -seed
  -snapshot file       a rollup snapshot recorded by probesim -snapshot

`)
		flag.PrintDefaults()
	}
	scale := flag.String("scale", "small", "dataset scale: small | full (ignored with -snapshot)")
	seed := flag.Uint64("seed", 1, "generator seed; with -snapshot it drives only the stochastic analysis steps")
	snapshot := flag.String("snapshot", "", "analyze a rollup snapshot file (see cmd/probesim -snapshot) instead of generating data")
	window := flag.String("window", "", "with -snapshot: analyze only bins A:B of the grid (e.g. 0:192 for the weekend at the 15-minute step)")
	svcNames := flag.String("services", "", "with -snapshot: keep only these comma-separated service names (a view, like -window)")
	fullScan := flag.Bool("full-scan", false, "with -snapshot views: bypass the footer-index planner and apply the view by a full sequential decode (single file only)")
	ids := flag.String("ids", "", "comma-separated experiment ids to run (default: every registered experiment)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON results for every registered experiment")
	concurrency := flag.Int("concurrency", 0, "parallel experiment workers (0 = NumCPU)")
	flag.Parse()

	var env *experiments.Env
	var err error
	for flagName, set := range map[string]bool{"-window": *window != "", "-services": *svcNames != "", "-full-scan": *fullScan} {
		if set && *snapshot == "" {
			fmt.Fprintf(os.Stderr, "analyze: %s requires -snapshot\n", flagName)
			os.Exit(2)
		}
	}
	if *snapshot != "" {
		if !*jsonOut {
			fmt.Printf("Loading rollup snapshot %s (seed %d)...\n", *snapshot, *seed)
		}
		env, err = snapshotEnv(*snapshot, *window, *svcNames, *fullScan, *seed)
	} else {
		cfg := synth.SmallConfig()
		if *scale == "full" {
			cfg = synth.DefaultConfig()
		}
		cfg.Seed = *seed
		if !*jsonOut {
			fmt.Printf("Generating %d-commune dataset (%d services, seed %d)...\n",
				cfg.Geo.NumCommunes, cfg.TotalServices, cfg.Seed)
		}
		env, err = experiments.NewEnv(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var runIDs []string
	if *ids != "" {
		for _, id := range strings.Split(*ids, ",") {
			if id = strings.TrimSpace(id); id != "" {
				runIDs = append(runIDs, id)
			}
		}
	}
	eng := experiments.NewEngine(env)
	results, err := eng.Run(context.Background(), experiments.Options{Concurrency: *concurrency, IDs: runIDs})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *jsonOut {
		buf, err := experiments.EncodeJSON(results)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(buf)
		return
	}

	country := env.DS.Geography()
	fmt.Printf("Country: %d communes, %d subscribers, %d cities\n\n",
		len(country.Communes), country.TotalSubscribers(), len(country.Cities))

	byID := make(map[string]experiments.Result, len(results))
	for _, r := range results {
		byID[r.ID] = r
	}
	// A metric an experiment could not compute prints as NaN rather
	// than masquerading as a measured zero.
	metric := func(id, key string) float64 {
		if v, ok := byID[id].Metrics[key]; ok {
			return v
		}
		return math.NaN()
	}

	fmt.Println("== Overview (Sec. 3) ==")
	fmt.Printf("  Zipf exponent, top half, downlink: %.2f  (paper: -1.69)\n",
		metric("fig2", "zipf_exponent_downlink"))
	fmt.Printf("  Zipf exponent, top half, uplink:   %.2f  (paper: -1.55)\n",
		metric("fig2", "zipf_exponent_uplink"))
	fmt.Printf("  Video share of downlink:           %.1f%% (paper: 46%%)\n",
		100*metric("fig3", "video_share_downlink"))

	fmt.Println("\n== Insight 1: heterogeneous temporal dynamics (Sec. 4) ==")
	fmt.Printf("  Distinct peak calendars:           %.0f/20 (paper: all distinct)\n",
		metric("fig6", "distinct_patterns"))
	fmt.Printf("  Peaks outside 7 topical times:     %.0f    (paper: 0)\n",
		metric("fig6", "outside_peaks"))
	fmt.Printf("  Silhouette trend vs k (downlink):  %+.4f (paper: degrading, no winner)\n",
		metric("fig5", "silhouette_slope_downlink"))

	fmt.Println("\n== Insight 2: homogeneous spatial distributions (Sec. 5) ==")
	fmt.Printf("  Mean pairwise r², downlink:        %.2f  (paper: 0.60)\n",
		metric("fig10", "mean_r2_downlink"))
	fmt.Printf("  Mean pairwise r², uplink:          %.2f  (paper: 0.53)\n",
		metric("fig10", "mean_r2_uplink"))
	fmt.Printf("  Twitter top-1%% commune share:      %.1f%% (paper: >50%%)\n",
		100*metric("fig8", "top1pct_share"))
	fmt.Printf("  Twitter top-10%% commune share:     %.1f%% (paper: >90%%)\n",
		100*metric("fig8", "top10pct_share"))

	fmt.Println("\n== Insight 3: urbanization drives how much, not when (Sec. 5) ==")
	fmt.Printf("  Mean semi-urban/urban slope:       %.2f  (paper: ≈1)\n",
		metric("fig11", "mean_slope_semiurban"))
	fmt.Printf("  Mean rural/urban slope:            %.2f  (paper: ≈0.5)\n",
		metric("fig11", "mean_slope_rural"))
	fmt.Printf("  Mean TGV/urban slope:              %.2f  (paper: ≥2)\n",
		metric("fig11", "mean_slope_tgv"))
	fmt.Printf("  Mean temporal r², urban row:       %.2f  (paper: high)\n",
		metric("fig11", "mean_time_r2_urban"))
	fmt.Printf("  Mean temporal r², TGV row:         %.2f  (paper: low outlier)\n",
		metric("fig11", "mean_time_r2_tgv"))

	fmt.Println("\n== Measurement pipeline (Sec. 2) ==")
	fmt.Printf("  DPI classification rate:           %.1f%% (paper: 88%%)\n",
		100*metric("probe", "classification_rate"))
	fmt.Printf("  Median ULI localization error:     %.1f km (paper: ≈3 km)\n",
		metric("probe", "median_uli_error_km"))
	fmt.Printf("  Measured-vs-generated rank corr.:  %.2f  (probe data through the analysis API)\n",
		metric("probe", "measured_rank_correlation"))
}

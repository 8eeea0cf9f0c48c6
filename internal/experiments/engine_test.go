package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestEngineParallelDeterminism is the engine's core contract: the
// same environment and seed give byte-identical results whatever the
// concurrency.
func TestEngineParallelDeterminism(t *testing.T) {
	e := testEnv(t)
	eng := NewEngine(e)
	ids := []string{"fig2", "fig3", "fig6", "fig8", "fig11"}
	seq, err := eng.Run(context.Background(), Options{Concurrency: 1, IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	par, err := eng.Run(context.Background(), Options{Concurrency: runtime.NumCPU(), IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(ids) || len(par) != len(ids) {
		t.Fatalf("result counts: seq %d, par %d, want %d", len(seq), len(par), len(ids))
	}
	for i, id := range ids {
		if seq[i].ID != id || par[i].ID != id {
			t.Errorf("position %d: seq %q par %q, want %q", i, seq[i].ID, par[i].ID, id)
		}
	}
	seqJSON, err := EncodeJSON(seq)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := EncodeJSON(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Error("parallel run is not byte-identical to sequential run")
	}
}

func TestEngineUnknownID(t *testing.T) {
	eng := NewEngine(testEnv(t))
	if _, err := eng.Run(context.Background(), Options{IDs: []string{"fig2", "nope"}}); err == nil {
		t.Error("unknown id: want error")
	}
}

func TestEngineCancellation(t *testing.T) {
	eng := NewEngine(testEnv(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, Options{IDs: []string{"fig2"}}); err == nil {
		t.Error("cancelled context: want error")
	}
}

type failKey struct{}

func TestEngineRunnerErrorPropagates(t *testing.T) {
	// The failure mode is opt-in via the context so the runner stays
	// well-behaved for the registry-wide tests.
	r := Runner{ID: "zz-maybe-fail", Title: "conditional failure", Run: func(ctx context.Context, e *Env) (Result, error) {
		if ctx.Value(failKey{}) != nil {
			return Result{}, errors.New("boom")
		}
		return Result{ID: "zz-maybe-fail", Title: "conditional failure",
			Metrics: map[string]float64{"ok": 1}, Text: "fine\n"}, nil
	}}
	if err := Register(r); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(testEnv(t))
	ctx := context.WithValue(context.Background(), failKey{}, true)
	_, err := eng.Run(ctx, Options{IDs: []string{"zz-maybe-fail"}})
	if err == nil {
		t.Fatal("failing runner: want error")
	}
	if !strings.Contains(err.Error(), "zz-maybe-fail") || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error %q should name the runner and its cause", err)
	}
}

// TestSeedOverrideSemantics pins the Options.Seed sentinel fix: a
// non-zero Seed overrides, a bare zero keeps the environment's seed,
// and HasSeed forces any value — including the previously unreachable
// seed 0.
func TestSeedOverrideSemantics(t *testing.T) {
	// Well-formed result (title, text): registry-wide tests run every
	// registered runner, this one included. Register only once — the
	// registry is process-global, and -count=2 reruns this test body.
	echo := Runner{ID: "zz-seed-echo", Title: "seed echo", Run: func(ctx context.Context, e *Env) (Result, error) {
		return Result{
			ID:      "zz-seed-echo",
			Title:   "seed echo",
			Metrics: map[string]float64{"seed": float64(e.Seed)},
			Text:    "echoes the effective seed back as a metric\n",
		}, nil
	}}
	if _, err := ByID(echo.ID); err != nil {
		if err := Register(echo); err != nil {
			t.Fatal(err)
		}
	}
	env := &Env{Seed: 42}
	run := func(opts Options) float64 {
		t.Helper()
		opts.IDs = []string{"zz-seed-echo"}
		out, err := NewEngine(env).Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return out[0].Metrics["seed"]
	}
	if got := run(Options{}); got != 42 {
		t.Errorf("no override: runner saw seed %v, want the env's 42", got)
	}
	if got := run(Options{Seed: 7}); got != 7 {
		t.Errorf("non-zero Seed: runner saw seed %v, want 7", got)
	}
	if got := run(Options{Seed: 0}); got != 42 {
		t.Errorf("bare zero Seed: runner saw seed %v, want the env's 42", got)
	}
	if got := run(Options{Seed: 0, HasSeed: true}); got != 0 {
		t.Errorf("HasSeed with zero: runner saw seed %v, want the forced 0", got)
	}
	if env.Seed != 42 {
		t.Errorf("override mutated the shared environment's seed to %d", env.Seed)
	}
}

func TestRegisterValidation(t *testing.T) {
	fig2 := func(ctx context.Context, e *Env) (Result, error) { return e.Fig2(ctx) }
	if err := Register(Runner{ID: "", Run: fig2}); err == nil {
		t.Error("empty id: want error")
	}
	if err := Register(Runner{ID: "x-nil"}); err == nil {
		t.Error("nil Run: want error")
	}
	if err := Register(Runner{ID: "fig2", Run: fig2}); err == nil {
		t.Error("duplicate id: want error")
	}
	// A fresh registration becomes visible to All and ByID. The runner
	// returns a well-formed result so registry-wide tests stay valid.
	r := Runner{ID: "zz-registry-test", Title: "registry smoke", Run: func(ctx context.Context, e *Env) (Result, error) {
		return Result{
			ID:      "zz-registry-test",
			Title:   "registry smoke",
			Metrics: map[string]float64{"ok": 1},
			Text:    "registered runners execute through the engine\n",
		}, nil
	}}
	if err := Register(r); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("zz-registry-test"); err != nil {
		t.Error(err)
	}
	found := false
	for _, got := range All() {
		if got.ID == "zz-registry-test" {
			found = true
		}
	}
	if !found {
		t.Error("registered runner missing from All()")
	}
	out, err := NewEngine(testEnv(t)).Run(context.Background(), Options{IDs: []string{"zz-registry-test"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Metrics["ok"] != 1 {
		t.Errorf("registered runner result: %+v", out)
	}
}

// TestEncodeJSONGolden pins the machine-readable result schema: id,
// title, metrics (sorted keys, non-finite values as null) and text.
func TestEncodeJSONGolden(t *testing.T) {
	results := []Result{
		{
			ID:    "fig2",
			Title: "Service ranking and Zipf fit",
			Metrics: map[string]float64{
				"zipf_exponent_downlink": -1.69,
				"zipf_r2_downlink":       0.975,
			},
			Text: "rank table\n",
		},
		{
			ID:    "probe",
			Title: "Packet pipeline validation",
			Metrics: map[string]float64{
				"classification_rate": 0.88,
				"degenerate":          math.NaN(),
			},
			Text: "",
		},
	}
	got, err := EncodeJSON(results)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "results.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON encoding drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestFig5JSONGolden pins fig5's machine-readable output byte for byte
// on the small synthetic dataset (recorded before the k-Shape kernel
// rewrite, which must not move a single byte of it).
func TestFig5JSONGolden(t *testing.T) {
	res, err := testEnv(t).Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeJSON([]Result{res})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fig5.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fig5 JSON drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

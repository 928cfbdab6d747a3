package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/faults"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registry has %d experiments, want 15", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Ref == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete registry entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	// The paper's core artifacts must all be present.
	for _, id := range []string{"table1", "figure1", "figure2", "figure3", "prob", "mitig", "faults"} {
		if !seen[id] {
			t.Fatalf("missing experiment %q", id)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestMinimalFlipRateTracksThreshold(t *testing.T) {
	// The binary search must land within a few percent of the
	// calibrated threshold for an arbitrary profile — this validates
	// the whole disturbance pipeline, not the calibration constant.
	for _, rateKps := range []int{500, 2200, 6000} {
		p := dram.Profile{
			Name:            "probe",
			MinRateKps:      rateKps,
			HCfirst:         uint64(rateKps) * 64,
			WeakCellsPerRow: 4,
		}
		measured, err := minimalFlipRate(p, nil)
		if err != nil {
			t.Fatalf("rate %dK: %v", rateKps, err)
		}
		want := float64(rateKps) * 1000
		if measured < want*0.95 || measured > want*1.1 {
			t.Fatalf("rate %dK: measured %.0f, want within ~5%%", rateKps, measured)
		}
	}
}

func TestHammerModuleRespectsRate(t *testing.T) {
	world := sim.NewWorld(9)
	clk := world.Clock
	m := dram.New(dram.Config{
		Geometry: dram.SmallGeometry(),
		Profile: dram.Profile{
			Name:            "t",
			HCfirst:         10000,
			WeakCellsPerRow: 8,
		},
		Seed: 9,
	}, world)
	if _, err := fillVictimRow(m, 101, nil); err != nil {
		t.Fatal(err)
	}
	// Below threshold rate: no flips even over many windows.
	if hammerModule(m, clk, 101, 100e3, 256*sim.Millisecond) {
		t.Fatal("sub-threshold rate flipped")
	}
	// Above threshold: flips promptly.
	if !hammerModule(m, clk, 101, 2e6, 128*sim.Millisecond) {
		t.Fatal("super-threshold rate did not flip")
	}
}

func TestRowFlipsDeterministic(t *testing.T) {
	cfg := dram.Config{
		Geometry: dram.SSDGeometry(),
		Profile: dram.Profile{
			Name:            "det",
			HCfirst:         24000,
			WeakCellsPerRow: 1.0,
		},
		Mapping: dram.MapperConfig{Twist: dram.TwistInterleave, TwistGroup: 16, XorBank: true},
		Seed:    77,
	}
	tr := dram.Triple{Bank: 2, VictimRow: 5, AggRows: [2]int{4, 6}}
	a := rowFlips(cfg, tr, nil)
	for i := 0; i < 3; i++ {
		if rowFlips(cfg, tr, nil) != a {
			t.Fatal("rowFlips not deterministic")
		}
	}
}

func TestQuickExperimentsProduceOutput(t *testing.T) {
	// The fast experiments must write their headline rows.
	for _, tc := range []struct {
		id   string
		want string
	}{
		{"prob", "cycles to 50%: 10"},
		{"table1", "DDR3"},
		{"figure2", "YES"},
		{"blast", "remote tenant 4 (device 1): state hash unchanged"},
	} {
		e, err := ByID(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, Options{Quick: true}); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Fatalf("%s output missing %q:\n%s", tc.id, tc.want, buf.String())
		}
	}
}

func TestAblationsShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	if err := Ablations(io.Discard, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
}

// runOutput captures one experiment's full quick-mode output at a given
// worker count.
func runOutput(t *testing.T, id string, workers int) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, Options{Quick: true, Workers: workers}); err != nil {
		t.Fatalf("%s workers=%d: %v", id, workers, err)
	}
	return buf.String()
}

// TestParallelOutputIdentical is the engine's core guarantee: the trial
// worker count never changes experiment output. Trials are sharded on
// fixed boundaries with SplitSeed-derived per-shard seeds and merged in
// trial order, so serial and 8-way runs must be byte-identical.
func TestParallelOutputIdentical(t *testing.T) {
	serial := runOutput(t, "prob", 1)
	parallel := runOutput(t, "prob", 8)
	if serial != parallel {
		t.Fatalf("prob output differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if testing.Short() {
		t.Skip("table1 determinism is long; skipped with -short")
	}
	serial = runOutput(t, "table1", 1)
	parallel = runOutput(t, "table1", 8)
	if serial != parallel {
		t.Fatalf("table1 output differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestBlastDeterministic pins blast's report across runs: the remapped LBA
// it prints is the first in plan order, not whichever a map range yields.
func TestBlastDeterministic(t *testing.T) {
	first := runOutput(t, "blast", 1)
	if second := runOutput(t, "blast", 1); first != second {
		t.Fatalf("blast output differs between two runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestDefensesParallelIdentical pins the defenses sweep — whose rows mix
// guard state, mitigation RNG draws and benign-tenant traffic — to the
// same worker-count independence guarantee.
func TestDefensesParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("defenses determinism is long; skipped with -short")
	}
	serial := runOutput(t, "defenses", 1)
	parallel := runOutput(t, "defenses", 8)
	if serial != parallel {
		t.Fatalf("defenses output differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestFuzzParallelIdentical pins the pattern fuzzer — whose generations
// fan evaluations across the trial engine via the RunBatch hook — to
// the same guarantee: the same seed and the same patterns produce the
// identical flip counts, guard verdicts and report at any worker count.
func TestFuzzParallelIdentical(t *testing.T) {
	serial := runOutput(t, "fuzz", 1)
	parallel := runOutput(t, "fuzz", 8)
	if serial != parallel {
		t.Fatalf("fuzz output differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "GUARD BYPASS FOUND") {
		t.Fatalf("quick fuzz run found no bypass:\n%s", serial)
	}
}

// runObserved captures one experiment's quick-mode output plus its
// deterministic metric snapshot and trace, at a given worker count.
func runObserved(t *testing.T, id string, workers int) (out, metrics, trace string) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewTracing(1 << 16)
	var buf bytes.Buffer
	if err := e.Run(&buf, Options{Quick: true, Workers: workers, Obs: reg}); err != nil {
		t.Fatalf("%s workers=%d: %v", id, workers, err)
	}
	reg.Flush()
	var mbuf, tbuf bytes.Buffer
	if err := reg.Snapshot(false).WriteTable(&mbuf); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteEventsJSONL(&tbuf, reg.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.String(), mbuf.String(), tbuf.String()
}

// TestParallelMetricsIdentical extends the engine's guarantee to the
// observability layer: with metrics and tracing enabled, experiment
// output, the deterministic metric snapshot, and the merged trace stream
// are all byte-identical between workers=1 and workers=8. Per-trial
// registries are merged in trial order and volatile (wall-clock) series
// are excluded from the snapshot, which is exactly what makes this hold.
func TestParallelMetricsIdentical(t *testing.T) {
	ids := []string{"prob"}
	if !testing.Short() {
		ids = append(ids, "table1")
	}
	for _, id := range ids {
		out1, met1, tr1 := runObserved(t, id, 1)
		out8, met8, tr8 := runObserved(t, id, 8)
		if out1 != out8 {
			t.Fatalf("%s: output differs between workers=1 and 8", id)
		}
		if met1 != met8 {
			t.Fatalf("%s: metric snapshot differs between workers=1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", id, met1, met8)
		}
		if tr1 != tr8 {
			t.Fatalf("%s: trace differs between workers=1 and 8", id)
		}
		if met1 == "" {
			t.Fatalf("%s: empty metric snapshot with Obs set", id)
		}
	}
}

// TestFaultsParallelObservedIdentical pins the fault-injection layer's
// determinism contract end to end: the robustness sweep's output, its
// fault/retry event streams and its metric snapshot are all byte-identical
// between workers=1 and workers=8. Injection draws from per-rule World
// streams and backoff jitter from a dedicated device stream, so sharding
// trials across workers must not move a single event.
func TestFaultsParallelObservedIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("faults sweep is long; CI covers -race via the cmd/repro smoke step")
	}
	out1, met1, tr1 := runObserved(t, "faults", 1)
	out8, met8, tr8 := runObserved(t, "faults", 8)
	if out1 != out8 {
		t.Fatalf("faults output differs between workers=1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", out1, out8)
	}
	if met1 != met8 {
		t.Fatalf("faults metric snapshot differs between workers=1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", met1, met8)
	}
	if tr1 != tr8 {
		t.Fatal("faults trace differs between workers=1 and 8")
	}
	// The robustness path must actually be visible in the artifacts.
	for _, ev := range []string{faults.EvInjected, nvme.EvRetry, nvme.EvTimeout} {
		if !strings.Contains(tr1, ev) {
			t.Fatalf("trace has no %s events", ev)
		}
	}
	for _, series := range []string{"faults_injected_total", "nvme_retries_total", "nvme_retries_per_command"} {
		if !strings.Contains(met1, series) {
			t.Fatalf("metric snapshot missing %s:\n%s", series, met1)
		}
	}
}

func TestRunTrialsOrderAndErrors(t *testing.T) {
	// Results come back in trial order regardless of workers.
	for _, workers := range []int{1, 3, 16} {
		got, err := runTrials(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: trial %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	// The lowest-numbered failing trial's error is reported at any width.
	failAt := func(i int) (int, error) {
		if i == 7 || i == 23 {
			return 0, fmt.Errorf("trial %d failed", i)
		}
		return i, nil
	}
	for _, workers := range []int{1, 4, 12} {
		_, err := runTrials(workers, 40, failAt)
		if err == nil || err.Error() != "trial 7 failed" {
			t.Fatalf("workers=%d: err = %v, want trial 7's error", workers, err)
		}
	}
	// Panics propagate.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		runTrials(4, 8, func(i int) (int, error) {
			if i == 3 {
				panic("boom")
			}
			return 0, nil
		})
	}()
}

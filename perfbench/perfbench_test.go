package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// tinyConfig runs a workload at a size that finishes in about a second.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     3,
		seconds:  400 * time.Millisecond,
		trace:    trace,
		spans:    filepath.Join(t.TempDir(), "spans.jsonl"),
		scale: scale{
			batch:               4,
			setupReps:           1,
			ladderBatches:       16,
			mixedBlocksPerPlane: 4,
			mixedPagesPerBlock:  32,
			experiments:         []string{"prob", "table1"},
		},
		out: io.Discard,
	}
}

// benchmarkSpec reads the metric names and units BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestEveryMetricEmitted runs every workload untraced and traced at a tiny
// size and checks that each emits exactly the metrics BENCHMARK.json
// names, with their units, and passes every correctness check.
func TestEveryMetricEmitted(t *testing.T) {
	e2e, layer := benchmarkSpec(t)
	for _, wl := range []string{"hammer", "mixed", "repro"} {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			res, _, err := runWorkload(context.Background(), tinyConfig(t, wl, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl, trace, res.Correct, res.Failed, res.Attempted)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				unit, ok := want[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not in BENCHMARK.json", wl, trace, name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", wl, trace, name, m.Unit, unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, name, m.Value)
				}
			}
			if len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("%s trace=%v: emitted %d metrics %v, BENCHMARK.json names %d", wl, trace, len(got), got, len(want))
			}
		}
	}
}

// TestLadderCountsRepeat checks that the nvme rung's simulated counts are
// identical between two traced runs of the same seed.
func TestLadderCountsRepeat(t *testing.T) {
	exact := []string{
		"dram.acts_per_cmd", "dram.flips", "dram.row_hit_ratio", "ftl.write_amp", "ftl.gc_runs",
		"ftl.gc_pages_moved", "ftl.l2p_lookups_per_cmd", "nand.reads_per_cmd", "nand.programs_per_cmd",
		"nand.erases_per_cmd", "nand.busy_us_per_cmd", "nvme.sim_us_per_cmd",
	}
	for _, wl := range []string{"hammer", "mixed"} {
		var runs [2]*result
		for i := range runs {
			res, _, err := runWorkload(context.Background(), tinyConfig(t, wl, true))
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = res
		}
		for _, name := range exact {
			if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
				t.Errorf("%s: %s differs between runs: %v vs %v", wl, name, a, b)
			}
		}
		if wl == "mixed" && runs[0].Metrics["ftl.write_amp"].Value <= 1 {
			t.Errorf("mixed: write amplification %v, want > 1 (GC must relocate live pages)", runs[0].Metrics["ftl.write_amp"].Value)
		}
		if wl == "hammer" && runs[0].Metrics["nand.reads_per_cmd"].Value != 0 {
			t.Errorf("hammer touched flash: %v reads per command", runs[0].Metrics["nand.reads_per_cmd"].Value)
		}
	}
}

// TestHistogramQuantile checks the log-linear histogram against exact
// nearest-rank quantiles.
func TestHistogramQuantile(t *testing.T) {
	var h histogram
	var xs []time.Duration
	for i := 1; i <= 10000; i++ {
		d := time.Duration(i*i) * time.Nanosecond
		h.add(d)
		xs = append(xs, d)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		exact, got := percentile(xs, q), h.quantile(q)
		if rel := math.Abs(float64(got-exact)) / float64(exact); rel > 0.008 {
			t.Errorf("q=%v: histogram %v, exact %v (%.2f%% off)", q, got, exact, 100*rel)
		}
	}
}

// TestRunRejectsBadFlags checks the command-line contract.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "hammer", "--seconds", "0"},
		{"--workload", "hammer", "--trace", "2"},
		{"--bogus"},
	} {
		if code := run(context.Background(), args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if code := run(context.Background(), []string{"--workload", "nope"}, io.Discard, io.Discard); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1", code)
	}
}

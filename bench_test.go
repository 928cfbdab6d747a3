// This file is the benchmark harness of deliverable
// (d): one testing.B benchmark per table and figure in the paper's
// evaluation. Each benchmark runs the corresponding experiment from
// internal/experiments and prints the paper-vs-measured rows (visible with
// `go test -bench=. -v` or in the -benchmem output stream).
//
// The benchmarks run the quick-mode experiments: same code paths and
// preserved result shapes, scaled populations. Run `go run ./cmd/repro
// -all -full` for full-scale numbers.
package ftlhammer

import (
	"fmt"
	"io"
	"os"
	"testing"

	"ftlhammer/internal/experiments"
)

// benchOut routes experiment tables to the test log (visible with -v) and,
// when REPRO_STDOUT is set, to standard output.
func benchOut(b *testing.B) io.Writer {
	if os.Getenv("REPRO_STDOUT") != "" {
		return os.Stdout
	}
	return &testWriter{b}
}

type testWriter struct{ b *testing.B }

func (w *testWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// runExperiment executes one registered experiment b.N times with the
// default (GOMAXPROCS-wide) trial engine.
func runExperiment(b *testing.B, id string) {
	runExperimentWorkers(b, id, 0)
}

// runExperimentWorkers executes one experiment b.N times at a fixed
// trial-engine width.
func runExperimentWorkers(b *testing.B, id string, workers int) {
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	w := benchOut(b)
	opt := experiments.Options{Quick: true, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(w, opt); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkTable1MinimalRates regenerates Table 1: the minimal access rate
// that triggers bitflips per DRAM generation. Shape: measured thresholds
// track the reported rates; newer modules flip at lower rates.
func BenchmarkTable1MinimalRates(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure1L2PRedirect regenerates Figure 1: a double-sided hammer
// built from ordinary reads flips an L2P entry and redirects an LBA.
func BenchmarkFigure1L2PRedirect(b *testing.B) { runExperiment(b, "figure1") }

// BenchmarkFigure2AccessRates regenerates Figure 2: the host-FS path is
// too slow on the testbed; the direct attacker-VM path crosses the
// threshold.
func BenchmarkFigure2AccessRates(b *testing.B) { runExperiment(b, "figure2") }

// BenchmarkFigure3Ext4Exploit regenerates Figure 3: the end-to-end
// unprivileged information leak through ext4 indirect blocks.
func BenchmarkFigure3Ext4Exploit(b *testing.B) { runExperiment(b, "figure3") }

// BenchmarkSection32Escalation demonstrates the §3.2 privilege-escalation
// consequence of a single-bit translation corruption.
func BenchmarkSection32Escalation(b *testing.B) { runExperiment(b, "escalation") }

// BenchmarkSection41Calibration regenerates the §4.1 testbed numbers:
// 1 MiB L2P per GiB, 3 M/s flip threshold, x5 amplification operating
// point, ~32 cross-partition vulnerable triples.
func BenchmarkSection41Calibration(b *testing.B) { runExperiment(b, "calib") }

// BenchmarkSection42TimeToLeak regenerates the §4.2 observation: time to a
// useful flip stretches as spray coverage drops (the paper's 5% limit).
func BenchmarkSection42TimeToLeak(b *testing.B) { runExperiment(b, "ttl") }

// BenchmarkSection43Probability regenerates §4.3: ~7% per cycle, >50% by
// 10 cycles, Monte Carlo agreeing with the closed form.
func BenchmarkSection43Probability(b *testing.B) { runExperiment(b, "prob") }

// BenchmarkSection5Mitigations regenerates the §5 mitigation discussion as
// an ablation table.
func BenchmarkSection5Mitigations(b *testing.B) { runExperiment(b, "mitig") }

// BenchmarkDesignAblations runs the DESIGN.md §5 design-choice studies:
// hammer sidedness x row policy, half-double coupling, amplification
// factor, and L2P layout lookup cost.
func BenchmarkDesignAblations(b *testing.B) { runExperiment(b, "ablations") }

// BenchmarkTrialEngineSerial and BenchmarkTrialEngineParallel measure the
// same trial-heavy experiment (Table 1) at one worker versus the default
// GOMAXPROCS-wide pool. Their ns/op ratio is the engine's wall-clock
// speedup; the printed tables are byte-identical (see
// TestParallelOutputIdentical).
func BenchmarkTrialEngineSerial(b *testing.B)   { runExperimentWorkers(b, "table1", 1) }
func BenchmarkTrialEngineParallel(b *testing.B) { runExperimentWorkers(b, "table1", 0) }

// Example of using the registry programmatically.
func Example() {
	e, err := experiments.ByID("prob")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(e.Ref)
	// Output: §4.3
}

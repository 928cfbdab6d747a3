// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator, checks that the workload's outputs are
// correct, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 they are the per-layer ones, from the layer ladder: the
// workload's command stream replayed one layer lower at a time on freshly
// built identical stacks (see README.md).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hammer|mixed|repro --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec names one reported metric. Clock says what a value measures:
// "host" is wall or CPU time on the machine running the benchmark, "sim"
// is the simulator's virtual time, and "count" is neither.
type metricSpec struct {
	Name  string
	Unit  string
	Clock string
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them (see README.md for what a command and a batch are on
// each workload).
var endToEnd = []metricSpec{
	{"iops", "1/s", "host"},
	{"batch_p50_us", "us", "host"},
	{"batch_p99_us", "us", "host"},
	{"cpu_us_per_cmd", "us", "host"},
	{"suite_s", "s", "host"},
	{"setup_s", "s", "host"},
	{"peak_heap_mib", "MiB", "count"},
}

// perLayer lists the layer-ladder metrics. A metric that does not apply
// to a workload (the fleet hop on hammer, the serving layers on repro)
// reads 0.
var perLayer = append([]metricSpec{
	{"transport.rtt_ns_per_cmd", "ns", "host"},
	{"transport.self_ns_per_cmd", "ns", "host"},
	{"transport.bytes_per_cmd", "B", "count"},
	{"transport.window_stalls", "count", "count"},
	{"fleet.splice_ns_per_cmd", "ns", "host"},
	{"fleet.refused", "count", "count"},
	{"nvme.ns_per_cmd", "ns", "host"},
	{"nvme.self_ns_per_cmd", "ns", "host"},
	{"nvme.sim_us_per_cmd", "us", "sim"},
	{"ftl.ns_per_op", "ns", "host"},
	{"ftl.self_ns_per_op", "ns", "host"},
	{"ftl.l2p_lookups_per_cmd", "count", "count"},
	{"ftl.write_amp", "ratio", "count"},
	{"ftl.gc_runs", "count", "count"},
	{"ftl.gc_pages_moved", "count", "count"},
	{"dram.ns_per_access", "ns", "host"},
	{"dram.ns_per_activation", "ns", "host"},
	{"dram.acts_per_cmd", "count", "count"},
	{"dram.row_hit_ratio", "ratio", "count"},
	{"dram.flips", "count", "count"},
	{"nand.ns_per_op", "ns", "host"},
	{"nand.reads_per_cmd", "count", "count"},
	{"nand.programs_per_cmd", "count", "count"},
	{"nand.erases_per_cmd", "count", "count"},
	{"nand.busy_us_per_cmd", "us", "sim"},
	{"remainder_ns_per_cmd", "ns", "host"},
	{"trace.iops_untraced", "1/s", "host"},
	{"trace.iops_traced", "1/s", "host"},
	{"trace.overhead_frac", "ratio", "host"},
	{"trace.clock_ns", "ns", "host"},
	{"experiments.cpu_busy_frac", "ratio", "host"},
	{"experiments.output_mismatch", "count", "count"},
}, experimentMetrics()...)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable verdict (the last stdout
// line).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	spans    string
	scale    scale
	out      io.Writer
}

// scale sizes the workloads. The self-test shrinks it; the benchmark
// always runs defaultScale.
type scale struct {
	// batch is the closed loop's batch size.
	batch int
	// setupReps is the fewest times a run sets up; quick setups repeat
	// until setupMin is spent (see medianSetup). setup_s is the median.
	setupReps int
	setupMin  time.Duration
	// ladderBatches is how many batches per session the layer ladder
	// replays.
	ladderBatches int
	// mixedBlocksPerPlane sizes each mixed device's flash (4 channels ×
	// 2 dies × 2 planes × this × mixedPagesPerBlock pages of 4 KiB).
	mixedBlocksPerPlane int
	mixedPagesPerBlock  int
	// experiments restricts the repro suite (nil = the full suite).
	experiments []string
}

func defaultScale() scale {
	return scale{
		batch:               16,
		setupReps:           3,
		setupMin:            time.Second,
		ladderBatches:       1024,
		mixedBlocksPerPlane: 8,
		mixedPagesPerBlock:  128,
	}
}

// run is main with its dependencies injected. It returns the exit code:
// 0 when a result was printed, 1 when the run failed, 2 on bad flags.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: hammer | mixed | repro")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced layer ladder (per-layer metrics)")
	spans := fs.String("spans", "", "span output file for -trace 1 (default .bench_build/spans-<workload>.jsonl)")
	writeHashes := fs.String("write-hashes", "", "repro: write the observed output hashes to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		spans:    *spans,
		scale:    defaultScale(),
		out:      stdout,
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans-"+cfg.workload+".jsonl")
	}
	res, hashes, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *writeHashes != "" {
		if err := os.WriteFile(*writeHashes, []byte(hashes), 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload runs one workload and returns its result plus, for repro,
// the observed output hashes in repro_hashes.txt format.
func runWorkload(ctx context.Context, cfg config) (*result, string, error) {
	if cfg.workload == "hammer" || cfg.workload == "mixed" {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(servingProcs))
	}
	reserveWindows(measureWindows)
	heap := startHeapSampler()
	printProvenance(cfg)
	var (
		m      measurement
		hashes string
		err    error
	)
	switch cfg.workload {
	case "hammer", "mixed":
		m, err = runServing(ctx, cfg)
	case "repro":
		m, hashes, err = runRepro(ctx, cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want hammer, mixed or repro)", cfg.workload)
	}
	peak := heap.stop()
	if err != nil {
		return nil, "", err
	}
	m.values["peak_heap_mib"] = float64(peak) / (1 << 20)
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := &result{
		Correct:   m.failed == 0 && m.problem == "",
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	for _, sp := range specs {
		res.Metrics[sp.Name] = metric{Value: m.values[sp.Name], Unit: sp.Unit}
	}
	printMetrics(cfg.out, cfg.workload, specs, m)
	if res.Attempted < 1 {
		return nil, "", errors.New("workload attempted nothing")
	}
	return res, hashes, nil
}

// measurement is what a workload hands back: metric values by name plus
// the correctness tally.
type measurement struct {
	values    map[string]float64
	attempted int64
	failed    int64
	// problem names the first correctness failure ("" when correct).
	problem string
}

func newMeasurement() measurement {
	return measurement{values: map[string]float64{}}
}

// fail records one failed operation and keeps the first reason.
func (m *measurement) fail(n int64, why string) {
	m.failed += n
	if m.problem == "" {
		m.problem = why
	}
}

// tally folds a phase's correctness counts into m.
func (m *measurement) tally(attempted, failed int64, problem string) {
	m.attempted += attempted
	if failed > 0 || problem != "" {
		m.fail(failed, problem)
	}
}

// printProvenance writes the run's provenance header.
func printProvenance(cfg config) {
	fmt.Fprintf(cfg.out, "perfbench: workload=%s seed=%d seconds=%.0f trace=%v\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(cfg.out, "host: go=%s GOMAXPROCS=%d nproc=%d git=%s os=%s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), gitSHA(), runtime.GOOS, runtime.GOARCH)
}

// gitSHA returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a git checkout.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// printMetrics writes the human-readable metric table.
func printMetrics(w io.Writer, workload string, specs []metricSpec, m measurement) {
	fmt.Fprintf(w, "%s metrics (host = wall/CPU time on this machine, sim = simulated time):\n", workload)
	names := make([]string, 0, len(specs))
	byName := map[string]metricSpec{}
	for _, sp := range specs {
		names = append(names, sp.Name)
		byName[sp.Name] = sp
	}
	sort.Strings(names)
	for _, n := range names {
		sp := byName[n]
		fmt.Fprintf(w, "  %-32s %16.4f %-6s [%s]\n", n, m.values[n], sp.Unit, sp.Clock)
	}
	frac := 0.0
	if m.attempted > 0 {
		frac = float64(m.failed) / float64(m.attempted)
	}
	fmt.Fprintf(w, "  %-32s %16.4f %-6s [count] (%d failed of %d attempted)\n", "error_frac", frac, "ratio", m.failed, m.attempted)
	if m.problem != "" {
		fmt.Fprintf(w, "INCORRECT: %s\n", m.problem)
	}
}

// experimentMetrics returns one per-experiment wall-time metric for every
// experiment of the repro suite.
func experimentMetrics() []metricSpec {
	var out []metricSpec
	for _, id := range reproIDs() {
		out = append(out, metricSpec{"experiments." + id + "_s", "s", "host"})
	}
	return out
}

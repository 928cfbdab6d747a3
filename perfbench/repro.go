package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"ftlhammer/internal/experiments"
	"ftlhammer/internal/fleet"
)

// reproHashes pins the SHA-256 of every experiment's quick-mode output,
// one "<id> <hex>" per line. Regenerate with -workload repro
// -write-hashes perfbench/repro_hashes.txt after an intended change.
//
//go:embed repro_hashes.txt
var reproHashes string

// reproSkipped is left out of the suite: its single long trial makes one
// pass take ~40 s on two cores.
const reproSkipped = "ttl"

// reproKnownNondeterministic lists experiments whose output is known to
// change from run to run. Their mismatches still count in
// experiments.output_mismatch and are printed on every run, but do not
// make the run incorrect. blast picks the LBA it reports by ranging over
// a map.
var reproKnownNondeterministic = map[string]bool{"blast": true}

// reproIDs returns the suite's experiments in paper order.
func reproIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		if e.ID != reproSkipped {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// pinnedHashes parses repro_hashes.txt.
func pinnedHashes() map[string]string {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(reproHashes))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			out[f[0]] = f[1]
		}
	}
	return out
}

// runRepro runs the quick-mode experiment suite in paper order, pass after
// pass, until the measuring time is used up (at least one pass). A
// command is one experiment Run and a batch is one experiment Run; the
// suite is one pass.
func runRepro(ctx context.Context, cfg config) (measurement, string, error) {
	m := newMeasurement()
	ids := cfg.scale.experiments
	if ids == nil {
		ids = reproIDs()
	}
	var suite []experiments.Experiment
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			return m, "", err
		}
		suite = append(suite, e)
	}
	pinned := pinnedHashes()
	workers := runtime.NumCPU()

	// Setup: build the §4.1 testbed device that the experiments' trials
	// assemble over and over.
	setup, err := medianSetup(cfg.scale, func() error {
		_, err := fleet.DeviceSpec{Profile: "testbed", Tenants: 4, Amplify: 5}.Build(cfg.seed, nil)
		return err
	}, func() error { return nil })
	if err != nil {
		return m, "", err
	}
	m.values["setup_s"] = setup.Seconds()
	fmt.Fprintf(cfg.out, "suite: %d quick-mode experiments (%s; %s left out), Workers=%d; setup builds one testbed-profile device\n",
		len(suite), joinIDs(ids), reproSkipped, workers)

	var (
		passes   []time.Duration
		runs     []time.Duration
		perExp   = map[string][]time.Duration{}
		observed = map[string]string{}
		mismatch = map[string]bool{}
		cmds     int64
	)
	var rec *spanRecorder
	if cfg.trace {
		rec = newSpanRecorder()
	}
	start := time.Now()
	cpu0 := cpuTime()
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		if err := ctx.Err(); err != nil {
			return m, "", err
		}
		p0 := time.Now()
		var passSpan int32
		if rec != nil {
			passSpan = rec.open("experiments.suite", -1, int64(pass))
		}
		for _, e := range suite {
			var out bytes.Buffer
			t0 := time.Now()
			var sp int32
			if rec != nil {
				sp = rec.open("experiments."+e.ID, passSpan, int64(pass))
			}
			err := e.Run(&out, experiments.Options{Quick: true, Workers: workers})
			d := time.Since(t0)
			if rec != nil {
				rec.close(sp)
			}
			m.attempted++
			cmds++
			runs = append(runs, d)
			perExp[e.ID] = append(perExp[e.ID], d)
			if err != nil {
				m.fail(1, fmt.Sprintf("experiment %s: %v", e.ID, err))
				continue
			}
			sum := sha256.Sum256(out.Bytes())
			h := hex.EncodeToString(sum[:])
			observed[e.ID] = h
			if pinned[e.ID] != h {
				mismatch[e.ID] = true
			}
		}
		passes = append(passes, time.Since(p0))
		if rec != nil {
			rec.close(passSpan)
		}
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0

	var bad, known []string
	for id := range mismatch {
		if reproKnownNondeterministic[id] {
			known = append(known, id)
		} else {
			bad = append(bad, id)
		}
	}
	sort.Strings(bad)
	sort.Strings(known)
	if len(bad) > 0 {
		m.fail(0, "output differs from the pinned hash: "+joinIDs(bad))
	}
	fmt.Fprintf(cfg.out, "output mismatches against repro_hashes.txt: %s (known nondeterministic: %s)\n",
		joinIDs(bad), joinIDs(known))

	suiteS := median(passes).Seconds()
	m.values["suite_s"] = suiteS
	m.values["iops"] = float64(len(suite)) / suiteS
	m.values["batch_p50_us"] = us(percentile(runs, 0.50))
	m.values["batch_p99_us"] = us(percentile(runs, 0.99))
	m.values["cpu_us_per_cmd"] = us(cpu) / float64(cmds)
	for _, id := range ids {
		m.values["experiments."+id+"_s"] = median(perExp[id]).Seconds()
	}
	m.values["experiments.cpu_busy_frac"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
	m.values["experiments.output_mismatch"] = float64(len(mismatch))
	fmt.Fprintf(cfg.out, "measured %d pass(es) of the suite in %v; %d experiment runs (p50 and p99 are nearest-rank over them)\n",
		len(passes), wall.Round(time.Millisecond), len(runs))

	if rec != nil {
		if err := rec.write(cfg.spans, fmt.Sprintf(`{"workload":"repro","seed":%d,"workers":%d,"git":%q}`, cfg.seed, workers, gitSHA())); err != nil {
			return m, "", fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(cfg.out, "spans: %d written to %s\n", len(rec.sp), cfg.spans)
	}

	var hashes strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&hashes, "%s %s\n", id, observed[id])
	}
	return m, hashes.String(), nil
}

// joinIDs renders experiment IDs for a report line.
func joinIDs(ids []string) string {
	if len(ids) == 0 {
		return "none"
	}
	return strings.Join(ids, ",")
}

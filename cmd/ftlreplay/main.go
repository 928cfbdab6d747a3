// Command ftlreplay re-executes recorded command traces against a
// deterministic simulated device, verifies final state hashes, shrinks
// failing traces to their minimal core, and converts device snapshots
// between the binary format and JSON.
//
// The device-building flags (-profile, -seed, -tenants, -amplify,
// -fault-rate, -robust) fill the same fleet.DeviceSpec that cmd/hammerd
// builds, so a trace recorded by `hammerd -record` replays here against
// an identically configured device. Alternatively -restore starts the
// replay from a binary snapshot taken with -save or
// nvme.Device.Checkpoint.
//
// Modes:
//
//	ftlreplay -trace cmds.jsonl                      # replay, report hash
//	ftlreplay -trace cmds.jsonl -expect-hash 0xABC   # golden verify (exit 1 on mismatch)
//	ftlreplay -trace cmds.jsonl -save state.snap     # snapshot the device after replay
//	ftlreplay -restore state.snap -trace more.jsonl  # resume, then replay more
//	ftlreplay -trace cmds.jsonl -shrink -match "out of range" -out min.jsonl
//	ftlreplay -export-json state.snap                # snapshot → JSON on stdout
//
// -shrink runs delta debugging: it repeatedly replays subsets of the
// trace on a fresh (or freshly restored) device and keeps the smallest
// subsequence whose replay still produces a completion error containing
// -match (any completion error when -match is empty). The result is
// 1-minimal: removing any single command makes the failure disappear.
// See docs/REPLAY.md for the trace and snapshot format specs.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ftlhammer/internal/fleet"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/replay"
	"ftlhammer/internal/snapshot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftlreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var spec fleet.DeviceSpec
	fs.StringVar(&spec.Profile, "profile", "weak", "DRAM profile: testbed | weak | invulnerable")
	fs.IntVar(&spec.Tenants, "tenants", 4, "number of equal namespaces carved from the device")
	fs.IntVar(&spec.Amplify, "amplify", 1, "firmware hammers per I/O")
	fs.Float64Var(&spec.FaultRate, "fault-rate", 0, "inject device faults at this per-op probability")
	fs.BoolVar(&spec.Robust, "robust", false, "enable the NVMe retry/timeout/degradation policy (implied by -fault-rate)")
	var (
		seed       = fs.Uint64("seed", 0xBEEF, "simulation seed")
		tracePath  = fs.String("trace", "", "replay this command-trace JSONL file")
		restore    = fs.String("restore", "", "restore the device from this binary snapshot before replaying")
		save       = fs.String("save", "", "snapshot the device to this file after the replay")
		expectHash = fs.String("expect-hash", "", "verify the final state hash equals this value (e.g. 0x1a2b...)")
		shrink     = fs.Bool("shrink", false, "delta-debug the trace down to a minimal failing core")
		match      = fs.String("match", "", "with -shrink: the failure is a completion error containing this substring")
		out        = fs.String("out", "", "with -shrink: write the minimal trace here (default stdout)")
		exportJSON = fs.String("export-json", "", "decode this binary snapshot and write it as JSON to stdout (standalone mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ftlreplay:", err)
		return 1
	}

	if *exportJSON != "" {
		data, err := os.ReadFile(*exportJSON)
		if err != nil {
			return fail(err)
		}
		snap, err := snapshot.Decode(data)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", *exportJSON, err))
		}
		if err := snap.WriteJSON(stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if *tracePath == "" {
		fmt.Fprintln(stderr, "ftlreplay: -trace is required (or use -export-json)")
		fs.Usage()
		return 2
	}
	tf, err := os.Open(*tracePath)
	if err != nil {
		return fail(err)
	}
	entries, err := replay.ReadTrace(tf)
	tf.Close()
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *tracePath, err))
	}

	// fresh builds the replay target: a new device, optionally fast-
	// forwarded to the -restore snapshot.
	var snapBytes []byte
	if *restore != "" {
		if snapBytes, err = os.ReadFile(*restore); err != nil {
			return fail(err)
		}
	}
	if err := spec.Validate(); err != nil {
		return fail(err)
	}
	// Shrinking builds once per delta-debugging probe, which is what
	// makes every probe start from the same initial state.
	fresh := func() (*nvme.Device, error) {
		bd, err := spec.Build(*seed, nil)
		if err != nil {
			return nil, err
		}
		dev := bd.Device
		if snapBytes != nil {
			if err := dev.Restore(bytes.NewReader(snapBytes)); err != nil {
				return nil, fmt.Errorf("restoring %s: %w", *restore, err)
			}
		}
		return dev, nil
	}

	if *shrink {
		return runShrink(entries, fresh, *match, *out, stdout, stderr)
	}

	dev, err := fresh()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "device: config digest %#016x\n", dev.ConfigDigest())
	res, err := replay.Run(dev, entries)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "replayed %d commands (%d completed with errors)\n", res.Commands, res.Failed)
	fmt.Fprintf(stdout, "state hash: %#016x\n", res.StateHash)
	if *save != "" {
		sf, err := os.Create(*save)
		if err != nil {
			return fail(err)
		}
		if err := dev.Checkpoint(sf); err != nil {
			sf.Close()
			return fail(err)
		}
		if err := sf.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "snapshot saved to %s\n", *save)
	}
	if *expectHash != "" {
		want, err := strconv.ParseUint(*expectHash, 0, 64)
		if err != nil {
			return fail(fmt.Errorf("-expect-hash: %w", err))
		}
		if res.StateHash != want {
			return fail(&replay.HashMismatchError{Got: res.StateHash, Want: want})
		}
		fmt.Fprintln(stdout, "state hash verified")
	}
	return 0
}

// runShrink delta-debugs entries down to a minimal subsequence whose
// replay on a fresh device still fails (a completion error containing
// match, or any completion error when match is empty).
func runShrink(entries []replay.Entry, fresh func() (*nvme.Device, error), match, out string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ftlreplay:", err)
		return 1
	}
	// Surface device-build errors once up front instead of silently
	// treating every probe as "not failing".
	if _, err := fresh(); err != nil {
		return fail(err)
	}
	failing := func(es []replay.Entry) bool {
		dev, err := fresh()
		if err != nil {
			return false
		}
		res, err := replay.Run(dev, es)
		if err != nil {
			// The subset doesn't even map onto the device (EntryError):
			// that is not the failure being chased.
			return false
		}
		if match == "" {
			return res.Failed > 0
		}
		for _, msg := range res.Errors {
			if msg != "" && strings.Contains(msg, match) {
				return true
			}
		}
		return false
	}
	if !failing(entries) {
		return fail(fmt.Errorf("the full %d-command trace does not fail (match %q); nothing to shrink", len(entries), match))
	}
	minimal := replay.Shrink(entries, failing)
	fmt.Fprintf(stdout, "shrunk %d commands to %d\n", len(entries), len(minimal))
	w := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return fail(err)
		}
		if err := replay.WriteTrace(f, minimal); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "minimal trace written to %s\n", out)
		return 0
	}
	if err := replay.WriteTrace(w, minimal); err != nil {
		return fail(err)
	}
	return 0
}

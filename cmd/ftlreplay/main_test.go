package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/replay"
)

// defaultDevice builds the device run's flag defaults describe, so
// traces recorded here replay with no device flags.
func defaultDevice() (*nvme.Device, error) {
	bd, err := fleet.DeviceSpec{Profile: "weak", Tenants: 4, Amplify: 1}.Build(0xBEEF, nil)
	if err != nil {
		return nil, err
	}
	return bd.Device, nil
}

// recordTrace drives a deterministic workload (including one command
// that completes with an out-of-range error, for the shrink tests) on a
// default-config device, recording it to a trace file. It returns the
// device's final state hash — what a replay must reproduce.
func recordTrace(t *testing.T, path string) uint64 {
	t.Helper()
	dev, err := defaultDevice()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := replay.NewRecorder(f)
	rec.Attach(dev)
	ns := dev.Namespaces()[0]
	blk := make([]byte, dev.BlockBytes())
	for i := 0; i < 24; i++ {
		for j := range blk {
			blk[j] = byte(i + j)
		}
		dev.Do(nvme.Command{Op: nvme.OpWrite, NS: ns, Path: nvme.PathDirect, LBA: ftl.LBA(i % 8), Buf: blk})
		dev.Do(nvme.Command{Op: nvme.OpRead, NS: ns, Path: nvme.PathHostFS, LBA: ftl.LBA(i % 8), Buf: make([]byte, len(blk))})
	}
	dev.Do(nvme.Command{Op: nvme.OpRead, NS: ns, Path: nvme.PathDirect, LBA: 1 << 40, Buf: make([]byte, len(blk))})
	dev.SetRecorder(nil)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return dev.StateHash()
}

func TestReplayReportsStateHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmds.jsonl")
	hash := recordTrace(t, path)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	want := fmt.Sprintf("%#016x", hash)
	if !strings.Contains(stdout.String(), want) {
		t.Errorf("stdout missing state hash %s:\n%s", want, stdout.String())
	}
	if !strings.Contains(stdout.String(), "replayed 49 commands (1 completed with errors)") {
		t.Errorf("stdout missing replay summary:\n%s", stdout.String())
	}
}

func TestVerifyExpectedHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmds.jsonl")
	hash := recordTrace(t, path)

	var stdout, stderr bytes.Buffer
	args := []string{"-trace", path, "-expect-hash", fmt.Sprintf("%#x", hash)}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("verify with correct hash = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "state hash verified") {
		t.Errorf("stdout missing verification line:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-trace", path, "-expect-hash", "0x1"}, &stdout, &stderr); code != 1 {
		t.Fatalf("verify with wrong hash = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "state hash") {
		t.Errorf("stderr missing mismatch report:\n%s", stderr.String())
	}
}

// TestSaveRestoreExportJSON covers the snapshot modes end to end:
// replay+save, restore+empty-replay (same hash), and JSON export.
func TestSaveRestoreExportJSON(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "cmds.jsonl")
	hash := recordTrace(t, tracePath)
	snapPath := filepath.Join(dir, "state.snap")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", tracePath, "-save", snapPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("replay+save = %d; stderr:\n%s", code, stderr.String())
	}

	// Restoring the snapshot and replaying nothing lands on the same hash.
	empty := filepath.Join(dir, "empty.jsonl")
	ef, err := os.Create(empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.WriteTrace(ef, nil); err != nil {
		t.Fatal(err)
	}
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	args := []string{"-restore", snapPath, "-trace", empty, "-expect-hash", fmt.Sprintf("%#x", hash)}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("restore+verify = %d; stderr:\n%s", code, stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-export-json", snapPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("export-json = %d; stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{`"dram"`, `"ftl"`, `"nvme"`} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("JSON export missing section %s", want)
		}
	}
}

// TestShrinkCLI shrinks the recorded trace down to the single command
// whose completion error matches.
func TestShrinkCLI(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "cmds.jsonl")
	recordTrace(t, tracePath)
	outPath := filepath.Join(dir, "min.jsonl")

	var stdout, stderr bytes.Buffer
	args := []string{"-trace", tracePath, "-shrink", "-match", "out of namespace range", "-out", outPath}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("shrink = %d; stderr:\n%s", code, stderr.String())
	}
	mf, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	minimal, err := replay.ReadTrace(mf)
	if err != nil {
		t.Fatal(err)
	}
	if len(minimal) != 1 {
		t.Fatalf("minimal trace has %d commands, want 1: %+v", len(minimal), minimal)
	}
	if minimal[0].Op != "read" || minimal[0].LBA != 1<<40 {
		t.Errorf("minimal command = %+v, want the out-of-range read", minimal[0])
	}
	if !strings.Contains(stdout.String(), "shrunk 49 commands to 1") {
		t.Errorf("stdout missing shrink summary:\n%s", stdout.String())
	}
}

// TestShrinkRefusesHealthyTrace: shrinking a trace that never fails is
// an error, not an empty output.
func TestShrinkRefusesHealthyTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "cmds.jsonl")
	recordTrace(t, tracePath)
	var stdout, stderr bytes.Buffer
	args := []string{"-trace", tracePath, "-shrink", "-match", "no such error text"}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("shrink without a failure = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "does not fail") {
		t.Errorf("stderr missing explanation:\n%s", stderr.String())
	}
}

// TestDeviceMatchesAssemblyGolden: with an empty trace, the reported
// config digest and state hash are those of the freshly assembled
// device, which must match the assembly golden's pins for the same
// flags (cmd/hammerd's defaults on each DRAM profile).
func TestDeviceMatchesAssemblyGolden(t *testing.T) {
	b, err := os.ReadFile("../../internal/experiments/testdata/golden/assembly.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct {
		ConfigDigest string `json:"config_digest"`
		StateHash    string `json:"state_hash"`
	}
	if err := json.Unmarshal(b, &golden); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	ef, err := os.Create(empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.WriteTrace(ef, nil); err != nil {
		t.Fatal(err)
	}
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}
	for _, profile := range []string{"weak", "testbed", "invulnerable"} {
		t.Run(profile, func(t *testing.T) {
			want, ok := golden["spec-"+profile]
			if !ok {
				t.Fatalf("assembly golden has no spec-%s entry", profile)
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-trace", empty, "-profile", profile}, &stdout, &stderr); code != 0 {
				t.Fatalf("run = %d, want 0; stderr:\n%s", code, stderr.String())
			}
			for _, line := range []string{
				"device: config digest " + want.ConfigDigest,
				"state hash: " + want.StateHash,
			} {
				if !strings.Contains(stdout.String(), line) {
					t.Errorf("stdout missing %q:\n%s", line, stdout.String())
				}
			}
		})
	}
}

func TestRunFlagAndConfigErrors(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "cmds.jsonl")
	recordTrace(t, trace)
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-profile", "granite"}, 1},
		{[]string{"-tenants", "0"}, 1},
		{[]string{"-fault-rate", "1.5"}, 1},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-trace", trace}, tc.args...)
			if code := run(args, &stdout, &stderr); code != tc.want {
				t.Errorf("run(%v) = %d, want %d; stderr:\n%s", args, code, tc.want, stderr.String())
			}
		})
	}
}

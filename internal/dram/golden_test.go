package dram_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/sim"
)

var updateGolden = flag.Bool("update", false, "re-record the DRAM model golden hashes")

const goldenManifestPath = "testdata/golden/manifest.json"

// goldenSegment is one module configuration the golden script runs on.
type goldenSegment struct {
	name string
	cfg  dram.Config
}

// goldenSegments covers the disturbance model's knobs: each mitigation,
// half-double coupling, ECC, both row policies and several address
// mappings, all on a profile weak enough to flip within the script.
func goldenSegments() []goldenSegment {
	base := dram.Config{
		Geometry: dram.SmallGeometry(),
		Profile: dram.Profile{
			Name:            "golden weak",
			HCfirst:         200,
			ThresholdSigma:  0.3,
			WeakCellsPerRow: 3,
		},
		Mapping:       dram.MapperConfig{Twist: dram.TwistXor3},
		RefreshWindow: 200 * sim.Microsecond,
		Timing:        dram.DefaultTiming(),
		Seed:          0x601d,
	}
	blast2 := base
	blast2.Blast2Weight = 2
	blast2.Mapping = dram.MapperConfig{Twist: dram.TwistInterleave, TwistGroup: 16, XorBank: true}
	trr := base
	trr.TRR = dram.TRRConfig{Enabled: true, SamplerSize: 1, CommandsPerWindow: 64}
	para := base
	para.PARA = 0.01
	para.Timing = dram.Timing{}
	eccSeg := base
	eccSeg.ECC = true
	eccSeg.ECCScrub = true
	closed := base
	closed.Policy = dram.ClosedRow
	closed.Boosts = []dram.RowRangeBoost{{FromRow: 0, ToRow: 8, Mult: 3}}
	closed.Mapping = dram.MapperConfig{XorBank: true}
	return []goldenSegment{
		{"base", base},
		{"blast2", blast2},
		{"trr", trr},
		{"para", para},
		{"ecc", eccSeg},
		{"closed-row", closed},
	}
}

// goldenEntryRow is the entry row of the FTL-shaped hammer pair; its
// partner is entryRow^512, the conflict row ftl's amplifier activates.
const goldenEntryRow = 300

// goldenRun drives the fixed activation script on one segment and
// returns its SHA-256 over the final Save bytes, the flip log, the
// stats and every byte read back, plus the final stats.
func goldenRun(t *testing.T, seg goldenSegment) (string, dram.Stats) {
	t.Helper()
	w := sim.NewWorld(seg.cfg.Seed)
	clk := w.Clock
	m := dram.New(seg.cfg, w)
	rows := seg.cfg.Geometry.RowsPerBank
	addrOf := func(bank, row int) uint64 {
		return m.Mapper().Unmap(dram.Location{Bank: bank, Row: row})
	}
	// step charges one activation's worth of time plus any command-rate
	// back-pressure, as the device front end does.
	step := func(i int) {
		clk.Advance(sim.Duration(90 + 10*(i%3)))
		clk.Advance(m.TakeStall())
	}
	hammer := func(a, b uint64, pairs int) {
		for i := 0; i < pairs; i++ {
			m.Activate(a)
			step(i)
			m.Activate(b)
			step(i + 1)
		}
	}
	type victim struct{ bank, row int }
	var victims []victim
	for _, r := range []int{goldenEntryRow, goldenEntryRow ^ 512} {
		for d := -2; d <= 2; d++ {
			victims = append(victims, victim{0, r + d})
		}
	}
	for _, r := range []int{0, 1, 2, rows - 3, rows - 2, rows - 1} {
		victims = append(victims, victim{1, r})
	}

	// Give the victim rows mixed data so both flip directions can land.
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(0x5a ^ i)
	}
	for _, v := range victims {
		for _, a := range m.Mapper().RowAddrs(dram.Location{Bank: v.bank, Row: v.row}, 64) {
			if err := m.Write(a, line); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The FTL amplify shape: entry row R alternating with R^512, across
	// three refresh windows.
	entry, conflict := addrOf(0, goldenEntryRow), addrOf(0, goldenEntryRow^512)
	hammer(entry, conflict, 3000)
	// Rewind time to zero and hammer the same pair again: every row it
	// disturbs must fall back to its first refresh epoch.
	clk.Reset()
	hammer(entry, conflict, 1500)
	// The bank's first and last rows: edge neighbours fall off the array.
	hammer(addrOf(1, 0), addrOf(1, rows-1), 2000)

	// Checkpoint, do work that the restore must discard, then restore
	// into a fresh module with the clock rewound.
	var ck bytes.Buffer
	if err := m.Save(&ck); err != nil {
		t.Fatal(err)
	}
	at := clk.Now()
	hammer(addrOf(2, goldenEntryRow+4), addrOf(2, (goldenEntryRow+4)^512), 1500)
	m = dram.New(seg.cfg, w)
	if err := m.Load(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	clk.Restore(at)
	hammer(addrOf(2, goldenEntryRow+4), addrOf(2, (goldenEntryRow+4)^512), 1500)
	hammer(entry, conflict, 500)
	if clk.Now() < sim.Time(3*seg.cfg.RefreshWindow) {
		t.Fatalf("script crossed too few refresh windows: now %d", clk.Now())
	}

	h := sha256.New()
	buf := make([]byte, seg.cfg.Geometry.RowBytes)
	for _, v := range victims {
		for i, a := range m.Mapper().RowAddrs(dram.Location{Bank: v.bank, Row: v.row}, 64) {
			err := m.Read(a, buf[i*64:(i+1)*64])
			fmt.Fprintf(h, "err %v\n", err)
		}
		h.Write(buf)
	}
	if err := m.Save(h); err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Flips() {
		fmt.Fprintln(h, f)
	}
	fmt.Fprintf(h, "%+v\n", m.Stats())
	return fmt.Sprintf("%x", h.Sum(nil)), m.Stats()
}

// TestGoldenDRAMModel pins the DRAM disturbance model byte for byte: a
// fixed activation script per segment must land on the manifest's
// SHA-256 over snapshot bytes, flips, stats and read-back data. Any
// change to how activations, refresh epochs, mitigations or flips are
// accounted shows up here. Run with -update after an intentional model
// change.
func TestGoldenDRAMModel(t *testing.T) {
	got := make(map[string]string)
	var flips uint64
	for _, seg := range goldenSegments() {
		sum, st := goldenRun(t, seg)
		got[seg.name] = sum
		flips += st.Flips
		t.Logf("%s: %+v", seg.name, st)
		if seg.name == "base" && st.Flips == 0 {
			t.Errorf("base segment never flipped: %+v", st)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenManifestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenManifestPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d DRAM golden segments (%d flips)", len(got), flips)
		return
	}
	b, err := os.ReadFile(goldenManifestPath)
	if err != nil {
		t.Fatalf("read golden manifest (run with -update to regenerate): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("segment %s: hash %s, manifest says %q", name, sum, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("manifest segment %q no longer produced (run with -update)", name)
		}
	}
}

package attack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/ext4"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/guard"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
	"ftlhammer/internal/workload"
)

// fastConfig builds a scaled-down, highly vulnerable testbed so the
// integration tests run in milliseconds-to-seconds: a 512 MiB SSD, a DRAM
// profile that flips after 2000 disturbances, and a dense weak-cell
// population.
func fastConfig(mutate func(*cloud.Config)) cloud.Config {
	dcfg, _, _ := fleet.ProfileConfig("weak") // a built-in profile: no error
	dcfg.Profile.Name = "fast-weak"
	cfg := cloud.Config{
		Device:           fleet.DeviceSpec{Profile: "weak", Tenants: 2, Amplify: 5, DRAM: &dcfg},
		VictimFillBlocks: 6144,
		Seed:             0xBEEF,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

func fastTestbed(t *testing.T, mutate func(*cloud.Config)) *cloud.Testbed {
	t.Helper()
	tb, err := cloud.NewTestbed(fastConfig(mutate))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// --- polyglot blocks ---

// parsePointerBlock decodes a block as an indirect pointer array.
func parsePointerBlock(blk []byte) []uint32 {
	out := make([]uint32, len(blk)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(blk[i*4:])
	}
	return out
}

func TestCraftPointerBlockRoundTrip(t *testing.T) {
	targets := []uint32{100, 200, 300}
	blk, err := CraftPointerBlock(targets)
	if err != nil {
		t.Fatal(err)
	}
	ptrs := parsePointerBlock(blk)
	for i, want := range targets {
		if ptrs[i] != want {
			t.Fatalf("ptr[%d] = %d, want %d", i, ptrs[i], want)
		}
	}
	if ptrs[3] != 0 {
		t.Fatal("unused slot not zero")
	}
	if _, err := CraftPointerBlock(make([]uint32, 2000)); err == nil {
		t.Fatal("oversized target list accepted")
	}
}

func TestCraftPolyglotDualNature(t *testing.T) {
	targets := []uint32{7, 8, 9}
	blk, err := CraftPolyglot(targets, cloud.PolyglotMarker, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	ptrs := parsePointerBlock(blk)
	if ptrs[0] != 7 || ptrs[2] != 9 {
		t.Fatal("polyglot lost pointer validity")
	}
	if !bytes.Contains(blk, []byte(cloud.PolyglotMarker)) {
		t.Fatal("polyglot lost payload marker")
	}
	if _, err := CraftPolyglot(make([]uint32, 600), "m", nil); err == nil {
		t.Fatal("pointer area overflow accepted")
	}
	if _, err := CraftPolyglot(nil, "m", make([]byte, 4096)); err == nil {
		t.Fatal("payload overflow accepted")
	}
}

// --- offline analysis ---

func TestAnalyzeCrossPartitionFindsPlans(t *testing.T) {
	tb := fastTestbed(t, nil)
	plans, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{VictimNSID: tb.VictimNS.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	owner, err := tb.Device.L2POwner()
	if err != nil {
		t.Fatal(err)
	}
	region := tb.FTL.L2PRegion()
	decoys := 0
	for _, p := range plans {
		if len(p.Sides) != 2 {
			t.Fatalf("plan has %d sides, want the natural 2", len(p.Sides))
		}
		for side := 0; side < 2; side++ {
			if len(p.Sides[side]) == 0 {
				t.Fatal("plan with empty aggressor side")
			}
			for _, lba := range p.Sides[side] {
				if uint64(lba) >= tb.AttackerNS.NumLBAs {
					t.Fatalf("aggressor LBA %d outside attacker namespace", lba)
				}
			}
		}
		for _, g := range p.VictimGlobalLBAs {
			addr := region.Base + uint64(g)*ftl.EntryBytes
			if owner(addr) != tb.VictimNS.ID {
				t.Fatalf("victim LBA %d not owned by victim namespace", g)
			}
		}
		if p.HasDecoy {
			decoys++
		}
	}
	if decoys == 0 {
		t.Fatal("no plan has a decoy row")
	}
}

func TestAnalyzeSidesExtendsPlans(t *testing.T) {
	tb := fastTestbed(t, nil)
	// The fast testbed's banks hold one spare far row beyond the decoy,
	// so requesting 4 sides extends every plan to its natural max of 3.
	plans, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{VictimNSID: tb.VictimNS.ID, Sides: 4})
	if err != nil {
		t.Fatal(err)
	}
	extended := 0
	for _, p := range plans {
		if len(p.Sides) > 4 {
			t.Fatalf("plan extended past requested sidedness: %d", len(p.Sides))
		}
		if len(p.Sides) > 2 {
			extended++
		}
		for _, side := range p.Sides[2:] {
			if len(side) == 0 {
				t.Fatal("empty extra side")
			}
			for _, lba := range side {
				if uint64(lba) >= tb.AttackerNS.NumLBAs {
					t.Fatalf("extra-side LBA %d outside attacker namespace", lba)
				}
			}
		}
	}
	if extended == 0 {
		t.Fatal("no plan was extended past two sides")
	}
	h := &DeviceHammerer{Dev: tb.Device, NS: tb.AttackerNS, Path: nvme.PathDirect}
	for _, p := range plans {
		if len(p.Sides) != 3 {
			continue
		}
		// A many-sided pattern runs on an extended plan...
		pat := ManyPattern(3)
		pat.Iterations = 100
		if err := h.Hammer(p, pat); err != nil {
			t.Fatalf("many:3 on a 3-sided plan: %v", err)
		}
		// ...a pattern wider than the plan is rejected...
		wide := ManyPattern(4)
		wide.Iterations = 100
		if err := h.Hammer(p, wide); err == nil {
			t.Fatal("many:4 accepted on a 3-sided plan")
		}
		// ...and clamping it to the plan's sidedness makes it runnable
		// (the campaign's per-plan downgrade).
		clamped := wide.ClampSides(len(p.Sides))
		if err := h.Hammer(p, clamped); err != nil {
			t.Fatalf("clamped many:4 on a 3-sided plan: %v", err)
		}
		break
	}
}

func TestAnalyzeFailsOnHashedL2P(t *testing.T) {
	tb := fastTestbed(t, func(c *cloud.Config) {
		c.Device.Hashed = true
		c.Device.HashKey = 0xD00D
	})
	if _, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{VictimNSID: tb.VictimNS.ID}); err == nil {
		t.Fatal("offline analysis succeeded against randomized layout")
	}
}

// --- hammering ---

func TestHammerFlipsVictimRow(t *testing.T) {
	tb := fastTestbed(t, nil)
	plans, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{VictimNSID: tb.VictimNS.ID})
	if err != nil {
		t.Fatal(err)
	}
	before := tb.DRAM.Stats().Flips
	h := &DeviceHammerer{Dev: tb.Device, NS: tb.AttackerNS, Path: nvme.PathDirect}
	pat := DoublePattern()
	pat.Iterations = 60000
	// Hammer several plans: weak cells are sparse, some rows are clean.
	for i, p := range plans {
		if i >= 8 {
			break
		}
		if err := h.Hammer(p, pat); err != nil {
			t.Fatal(err)
		}
	}
	if tb.DRAM.Stats().Flips == before {
		t.Fatal("hammering induced no flips")
	}
	// Every flip must be in (or adjacent to) some hammered victim row's
	// bank — sanity on locality.
	geo := tb.DRAM.Config().Geometry
	_ = geo
	for _, ev := range tb.DRAM.Flips() {
		if ev.Row < 0 {
			t.Fatal("nonsense flip row")
		}
	}
}

func TestMeasuredRateExceedsRequired(t *testing.T) {
	tb := fastTestbed(t, nil)
	plans, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{VictimNSID: tb.VictimNS.ID})
	if err != nil {
		t.Fatal(err)
	}
	rate, err := MeasuredRate(tb.Device, tb.AttackerNS, nvme.PathDirect, plans[0], 4000)
	if err != nil {
		t.Fatal(err)
	}
	if required := RequiredRate(tb.Device); rate < required {
		t.Fatalf("direct path rate %.0f below required %.0f", rate, required)
	}
}

func TestTemplateSeparatesVulnerableRows(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	tb := fastTestbed(t, func(c *cloud.Config) {
		c.Device.DRAM.Profile.WeakCellsPerRow = 0.5 // make clean rows common
		// Same-owner triples need physically contiguous same-partition
		// rows — the Figure 1 single-tenant setting, plain mapping.
		c.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
	})
	plans, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) > 12 {
		plans = plans[:12]
	}
	pat := DoublePattern()
	pat.Iterations = 60000
	results, err := Template(tb.Device, tb.AttackerNS, nvme.PathDirect, plans, pat)
	if err != nil {
		t.Fatal(err)
	}
	vuln, clean := 0, 0
	for _, r := range results {
		if r.Vulnerable {
			vuln++
			if r.Observation == "" {
				t.Fatal("vulnerable result without observation")
			}
		} else {
			clean++
		}
	}
	if vuln == 0 {
		t.Fatal("templating found no vulnerable rows at density 0.5")
	}
	if clean == 0 {
		t.Fatal("templating found no clean rows at density 0.5")
	}
	// Ordering: vulnerable first.
	seenClean := false
	for _, r := range results {
		if !r.Vulnerable {
			seenClean = true
		} else if seenClean {
			t.Fatal("results not ordered vulnerable-first")
		}
	}
}

func TestPrepareAndTrimRange(t *testing.T) {
	tb := fastTestbed(t, nil)
	if err := PrepareRange(tb.Device, tb.AttackerNS, nvme.PathDirect, 100, 32); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, tb.Device.BlockBytes())
	mapped, err := tb.Device.Read(tb.AttackerNS, 110, buf, nvme.PathDirect)
	if err != nil || !mapped {
		t.Fatalf("prepared LBA unmapped: %v", err)
	}
	for lba := ftl.LBA(100); lba < 132; lba++ {
		if err := tb.Device.Trim(tb.AttackerNS, lba, nvme.PathDirect); err != nil {
			t.Fatal(err)
		}
	}
	mapped, err = tb.Device.Read(tb.AttackerNS, 110, buf, nvme.PathDirect)
	if err != nil || mapped {
		t.Fatalf("trimmed LBA still mapped: %v", err)
	}
}

// --- spraying & scanning ---

func TestSprayerShapeMatchesPaper(t *testing.T) {
	tb := fastTestbed(t, nil)
	s := NewSprayer(tb.VictimFS, cloud.AttackerCred, "/home/attacker")
	n, err := s.Spray(20, 32, uint32(tb.VictimFS.DataStart()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("created %d files, want 20", n)
	}
	for _, sf := range s.Files() {
		f, err := tb.VictimFS.Open(sf.Path, cloud.AttackerCred, false)
		if err != nil {
			t.Fatal(err)
		}
		// Hole of 12 blocks.
		for blk := uint64(0); blk < 12; blk++ {
			phys, err := f.MapBlock(blk)
			if err != nil {
				t.Fatal(err)
			}
			if phys != 0 {
				t.Fatalf("%s: direct block %d allocated", sf.Path, blk)
			}
		}
		if sf.IndirectFSBlock == 0 {
			t.Fatal("no indirect block recorded")
		}
		// Probe block reads back as the malicious pointer array.
		buf := make([]byte, ext4.BlockSize)
		if _, err := f.ReadAt(buf, ProbeOffset); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sf.Expected) {
			t.Fatal("probe block does not match crafted array")
		}
	}
	// Clean scan: no leaks without flips.
	leaks, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(leaks) != 0 {
		t.Fatalf("phantom leaks: %d", len(leaks))
	}
}

func TestScanDetectsRedirectAndDumpLeaks(t *testing.T) {
	tb := fastTestbed(t, nil)
	s := NewSprayer(tb.VictimFS, cloud.AttackerCred, "/home/attacker")
	// Target the victim's secret block explicitly.
	secretBlk, err := tb.SecretFSBlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spray(4, 8, uint32(secretBlk)); err != nil {
		t.Fatal(err)
	}
	// Simulate the useful bitflip: redirect file 0's indirect-block LBA
	// to the physical page of a sprayed malicious array — here its own
	// data block, whose pointer list starts at the secret.
	sf0 := s.Files()[0]
	f0, err := tb.VictimFS.Open(sf0.Path, cloud.AttackerCred, false)
	if err != nil {
		t.Fatal(err)
	}
	dataBlk0, err := f0.MapBlock(12)
	if err != nil {
		t.Fatal(err)
	}
	maliciousPPN := tb.FTL.PPNOf(tb.VictimNS.StartLBA + ftl.LBA(dataBlk0))
	entryAddr, err := tb.FTL.EntryAddr(tb.VictimNS.StartLBA + ftl.LBA(sf0.IndirectFSBlock))
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte{byte(maliciousPPN), byte(maliciousPPN >> 8), byte(maliciousPPN >> 16), byte(maliciousPPN >> 24)}
	if err := tb.DRAM.Write(entryAddr, raw); err != nil {
		t.Fatal(err)
	}

	leaks, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(leaks) != 1 {
		t.Fatalf("detected %d leaks, want 1", len(leaks))
	}
	dump, err := s.Dump(leaks[0], 8)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, blk := range dump {
		if bytes.Contains(blk, []byte(cloud.SecretMarker)) {
			found = true
		}
	}
	if !found {
		t.Fatal("dump through redirected indirect block did not contain the secret")
	}
}

func TestRespraySwapsFiles(t *testing.T) {
	tb := fastTestbed(t, nil)
	s := NewSprayer(tb.VictimFS, cloud.AttackerCred, "/home/attacker")
	if _, err := s.Spray(5, 4, uint32(tb.VictimFS.DataStart())); err != nil {
		t.Fatal(err)
	}
	old := s.Files()[0].Path
	if _, err := s.Respray(5, 4, uint32(tb.VictimFS.DataStart())+100); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.VictimFS.Stat(old, cloud.AttackerCred); err != ext4.ErrNotFound {
		t.Fatalf("old spray file still present: %v", err)
	}
	if len(s.Files()) != 5 {
		t.Fatalf("respray kept %d files", len(s.Files()))
	}
}

func TestSprayBlockedByForbidIndirect(t *testing.T) {
	tb := fastTestbed(t, func(c *cloud.Config) { c.ForbidIndirect = true })
	s := NewSprayer(tb.VictimFS, cloud.AttackerCred, "/home/attacker")
	if _, err := s.Spray(2, 4, uint32(tb.VictimFS.DataStart())); err == nil {
		t.Fatal("spraying succeeded under the extent-only mitigation")
	}
}

// --- end to end ---

func TestCampaignLeaksVictimData(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	// Amplification off: the x5 hack multiplies row-conflict traffic
	// and is only needed when the DRAM is barely vulnerable; this
	// profile is not. Dense spray maximizes the fraction of victim-row
	// translations the attacker controls (the paper's Fv = 25% of Cv).
	tb := fastTestbed(t, func(c *cloud.Config) { c.Device.Amplify = 1 })
	camp := NewCampaign(tb, CampaignConfig{
		SprayFiles:      3072,
		TargetsPerFile:  64,
		MaxCycles:       12,
		TriplesPerCycle: 8,
		Hunt:            "victim-data-block-",
	})
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("campaign: %+v", struct {
		Cycles, Leaks, Dumped int
		Flips                 uint64
		Found                 bool
	}{rep.Cycles, rep.LeaksDetected, rep.BlocksDumped, rep.FlipsInduced, rep.SecretFound})
	if rep.FlipsInduced == 0 {
		t.Fatal("campaign induced no flips")
	}
	if !rep.SecretFound {
		t.Fatal("campaign did not leak victim data")
	}
	if !strings.Contains(string(rep.SecretContent), "victim-data-block-") {
		t.Fatal("leaked content mismatch")
	}
}

func TestCampaignChurnKeepsFSConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	// With invulnerable DRAM the campaign is pure churn (spray, hammer
	// with no effect, respray): the filesystem and FTL accounting must
	// stay exactly consistent. Regression test for the GC headroom and
	// write-path ordering bugs this workload once exposed.
	tb := fastTestbed(t, func(c *cloud.Config) {
		c.Device.Amplify = 1
		c.Device.DRAM.Profile = dram.InvulnerableProfile()
	})
	camp := NewCampaign(tb, CampaignConfig{
		SprayFiles:      3072,
		TargetsPerFile:  64,
		MaxCycles:       4,
		TriplesPerCycle: 4,
		HammerPairs:     64, // no flips possible; keep churn fast
		Hunt:            "no-such-content-keeps-running",
	})
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlipsInduced != 0 {
		t.Fatal("invulnerable profile flipped bits")
	}
	fsck, err := tb.VictimFS.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.Clean() {
		t.Fatalf("churn campaign corrupted the filesystem: %v", fsck.Problems[:min(5, len(fsck.Problems))])
	}
}

func TestCampaignFlipLocalityAndCollateralDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	// Under attack, flips must land overwhelmingly in victim-partition
	// translations (that is what the targeted triples sandwich). The
	// campaign must survive to completion even though flips can corrupt
	// the victim filesystem — the §3.2 "data corruption" outcome is
	// expected collateral, not an error.
	tb := fastTestbed(t, func(c *cloud.Config) { c.Device.Amplify = 1 })
	camp := NewCampaign(tb, CampaignConfig{
		SprayFiles:      3072,
		TargetsPerFile:  64,
		MaxCycles:       6,
		TriplesPerCycle: 8,
		Hunt:            "no-such-content-keeps-running",
	})
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlipsInduced == 0 {
		t.Fatal("no flips induced")
	}
	region := tb.FTL.L2PRegion()
	victimData := 0
	for _, ev := range tb.DRAM.Flips() {
		if !region.Contains(ev.PhysAddr) {
			continue
		}
		lba := ftl.LBA((ev.PhysAddr - region.Base) / ftl.EntryBytes)
		if lba >= tb.VictimNS.StartLBA {
			victimData++
		}
	}
	if victimData*2 < len(tb.DRAM.Flips()) {
		t.Fatalf("only %d/%d flips in victim translations", victimData, len(tb.DRAM.Flips()))
	}
	if fsck, err := tb.VictimFS.Fsck(); err == nil && !fsck.Clean() {
		t.Logf("§3.2 collateral damage: %d filesystem inconsistencies (expected under attack)", len(fsck.Problems))
	}
}

func TestOneLocationHammerNeedsClosedRowPolicy(t *testing.T) {
	run := func(policy dram.RowPolicy) uint64 {
		tb := fastTestbed(t, func(c *cloud.Config) {
			c.Device.Amplify = 1
			c.Device.DRAM.Policy = policy
			c.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
		})
		plans, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := &DeviceHammerer{Dev: tb.Device, NS: tb.AttackerNS, Path: nvme.PathDirect}
		pat := OneLocationPattern()
		pat.Iterations = 60000
		before := tb.DRAM.Stats().Flips
		for i, p := range plans {
			if i >= 6 {
				break
			}
			if err := h.Hammer(p, pat); err != nil {
				t.Fatal(err)
			}
		}
		return tb.DRAM.Stats().Flips - before
	}
	if flips := run(dram.OpenRow); flips != 0 {
		t.Fatalf("one-location flipped %d bits under open-row policy", flips)
	}
	if flips := run(dram.ClosedRow); flips == 0 {
		t.Fatal("one-location produced no flips under closed-row policy")
	}
}

func TestSingleSidedPattern(t *testing.T) {
	tb := fastTestbed(t, func(c *cloud.Config) {
		c.Device.Amplify = 1
		c.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
	})
	plans, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Single-sided needs a far row (the decoy) as conflict partner.
	var plan *Binding
	for i := range plans {
		if plans[i].HasDecoy {
			plan = &plans[i]
			break
		}
	}
	if plan == nil {
		t.Skip("no plan with a far row available")
	}
	// It must run without error; with half the disturbance it may or
	// may not flip — the dram-level asymmetry test covers the physics.
	h := &DeviceHammerer{Dev: tb.Device, NS: tb.AttackerNS, Path: nvme.PathDirect}
	pat := SinglePattern()
	pat.Iterations = 30000
	if err := h.Hammer(*plan, pat); err != nil {
		t.Fatal(err)
	}
	bare := Binding{Sides: plan.Sides}
	pat.Iterations = 10
	if err := h.Hammer(bare, pat); err == nil {
		t.Fatal("single-sided without a far row should fail")
	}
}

func TestCampaignSurvivesVictimBackgroundTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	// The victim tenant keeps doing its own I/O while the attack runs:
	// interleave Zipf-distributed victim reads with campaign cycles and
	// confirm flips still land.
	tb := fastTestbed(t, func(c *cloud.Config) { c.Device.Amplify = 1 })
	camp := NewCampaign(tb, CampaignConfig{
		SprayFiles:      1024,
		TargetsPerFile:  64,
		MaxCycles:       2,
		TriplesPerCycle: 4,
		Hunt:            "no-such-marker",
	})
	// Background victim traffic before and between campaign stages.
	bg := workload.NewRunner(tb.Device, tb.VictimNS, nvme.PathHostFS)
	z := workload.NewZipf(sim.NewRNG(11), tb.VictimNS.NumLBAs/2, 0.9)
	if err := bg.ZipfReads(z, 20000); err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlipsInduced == 0 {
		t.Fatal("background traffic prevented all flips")
	}
	// After the attack the victim's own reads may hit corrupted
	// translations — the §3.2 data-corruption outcome becoming visible
	// to the victim. Anything else is a real failure.
	buf := make([]byte, tb.Device.BlockBytes())
	corrupt := 0
	for i := 0; i < 20000; i++ {
		_, err := tb.Device.Read(tb.VictimNS, ftl.LBA(z.Next()), buf, nvme.PathHostFS)
		if err != nil {
			var cme *ftl.CorruptMappingError
			if errors.As(err, &cme) {
				corrupt++
				continue
			}
			t.Fatalf("victim read failed with non-corruption error: %v", err)
		}
	}
	t.Logf("victim observed %d corrupt-translation read errors post-attack", corrupt)
}

func TestCacheEvictionBypass(t *testing.T) {
	// The §5 speculation implemented: a direct-mapped FTL L2P cache
	// absorbs plain hammering, but an attacker that interleaves reads of
	// set-aliasing entries evicts the aggressor translations and flips
	// bits anyway.
	run := func(evict int) (flips uint64, observed bool) {
		tb := fastTestbed(t, func(c *cloud.Config) {
			c.Device.Amplify = 1
			c.Device.Cache.Enabled = true
			c.Device.Cache.Lines = 1024
			c.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
		})
		plans, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(plans) > 6 {
			plans = plans[:6]
		}
		pat := DoublePattern()
		pat.Iterations = 60000
		pat.CacheEvictLines = evict
		results, err := Template(tb.Device, tb.AttackerNS, nvme.PathDirect, plans, pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Vulnerable {
				observed = true
			}
		}
		return tb.DRAM.Stats().Flips, observed
	}
	if flips, _ := run(0); flips != 0 {
		t.Fatalf("cache absorbed nothing: %d flips without eviction", flips)
	}
	flips, observed := run(1024)
	if flips == 0 {
		t.Fatal("eviction-aware hammer produced no flips through the cache")
	}
	if !observed {
		t.Fatal("eviction-aware probing failed to observe the corruption")
	}
}

func TestGuardNeutralizesCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	// The firmware-side hammer guard (internal/guard) must detect the
	// attack signature, throttle only the attacker namespace, and keep
	// flips from accumulating — while the victim's own traffic runs
	// unthrottled.
	gcfg := guard.DefaultConfig()
	tb := fastTestbed(t, func(c *cloud.Config) {
		c.Device.Amplify = 1
		c.Device.Guard = &gcfg
	})
	camp := NewCampaign(tb, CampaignConfig{
		SprayFiles:      1024,
		TargetsPerFile:  64,
		MaxCycles:       4,
		TriplesPerCycle: 8,
		Hunt:            "victim-data-block-",
	})
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SecretFound {
		t.Fatal("guarded device still leaked")
	}
	if rep.FlipsInduced != 0 {
		t.Fatalf("guarded device still flipped %d bits", rep.FlipsInduced)
	}
	g := tb.Device.Guard()
	if g.Violations(tb.AttackerNS.ID) == 0 {
		t.Fatal("guard never detected the attack")
	}
	if g.Violations(tb.VictimNS.ID) != 0 {
		t.Fatal("guard blamed the victim namespace")
	}
	if tb.AttackerNS.Stats().Throttled == 0 {
		t.Fatal("attacker namespace never throttled")
	}
	if tb.VictimNS.Stats().Throttled != 0 {
		t.Fatal("victim namespace was throttled")
	}
}

// Command ftlhammer runs a configurable FTL-rowhammer attack campaign
// against the emulated multi-tenant SSD and reports the outcome.
//
// Example:
//
//	ftlhammer -profile testbed -cycles 20 -spray 3072 -amplify 5
//	ftlhammer -profile weak -mitigation ecc
//	ftlhammer -profile weak -mitigation trr -sync-decoys
//	ftlhammer -profile weak -mitigation trr:1 -pattern many:4
//	ftlhammer -profile weak -metrics table -trace run.jsonl
//	ftlhammer -profile weak -fault-rate 0.01 -v
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/faults"
	"ftlhammer/internal/guard"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
	"ftlhammer/internal/stats"
	"ftlhammer/internal/victims"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, executes one campaign or victim run, and writes the
// report to stdout. It returns the process exit code: 0 on success, 1 on
// a configuration or run error (reported on stderr), 2 on a flag error.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("ftlhammer", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		profile    = flags.String("profile", "weak", "DRAM profile: testbed | weak | invulnerable")
		cycles     = flags.Int("cycles", 12, "maximum attack cycles")
		sprayFiles = flags.Int("spray", 3072, "spray files per cycle")
		targets    = flags.Int("targets", 64, "pointer targets per malicious block")
		triples    = flags.Int("triples", 8, "triples hammered per cycle")
		amplify    = flags.Int("amplify", 1, "firmware hammers per I/O (paper testbed: 5)")
		mitigation = flags.String("mitigation", "none", "none | ecc | trr[:sampler] | para[:p] | refresh[:scale] | refresh2x | cache | ratelimit | hashed | extent-only | guard")
		syncDecoys = flags.Bool("sync-decoys", false, "REF-synchronized decoy reads (TRR bypass)")
		pattern    = flags.String("pattern", "", "hammer pattern: single | double | one-location | many:<n> | fuzzed:<seed> (empty: classic double-sided)")
		victim     = flags.String("victim", "", "hammer a software victim instead of the leak campaign: fs | fs-hardened | kv | gc | gc-churn (docs/VICTIMS.md)")
		iters      = flags.Int("iterations", 24000, "pattern iterations for -victim runs")
		hunt       = flags.String("hunt", "victim-data-block-", "content marker to hunt for")
		seed       = flags.Uint64("seed", 0xBEEF, "simulation seed")
		verbose    = flags.Bool("v", false, "print device statistics")
		metrics    = flags.String("metrics", "", "end-of-run metric dump: 'table' or 'json'")
		trace      = flags.String("trace", "", "write the event trace to this JSONL file")
		faultRate  = flags.Float64("fault-rate", 0, "inject device faults at this per-op probability (standard mix, see docs/FAULTS.md)")
		robust     = flags.Bool("robust", false, "enable the NVMe retry/timeout/degradation policy (implied by -fault-rate)")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ftlhammer:", err)
		return 1
	}
	if *metrics != "" && *metrics != "table" && *metrics != "json" {
		return fail(fmt.Errorf("-metrics must be 'table' or 'json', got %q", *metrics))
	}
	var reg *obs.Registry
	if *metrics != "" || *trace != "" {
		if *trace != "" {
			reg = obs.NewTracing(1 << 16)
		} else {
			reg = obs.NewRegistry()
		}
	}

	cfg := cloud.Config{
		DRAM: dram.Config{
			Geometry: dram.SSDGeometry(),
			Mapping: dram.MapperConfig{
				Twist:      dram.TwistInterleave,
				TwistGroup: 8,
				XorBank:    true,
			},
		},
		FlashGeometry: nand.Geometry{
			Channels:      4,
			DiesPerChan:   2,
			PlanesPerDie:  2,
			BlocksPerPlan: 32,
			PagesPerBlock: 256,
			PageBytes:     4096,
		},
		VictimFillBlocks: 6144,
		Seed:             *seed,
		Obs:              reg,
	}
	switch *profile {
	case "testbed":
		cfg.DRAM.Profile = dram.TestbedProfile()
		cfg.DRAM.Mapping.TwistGroup = 16
		cfg.FlashGeometry = nand.DefaultGeometry()
	case "weak":
		cfg.DRAM.Profile = dram.Profile{
			Name:            "weak DDR (scaled)",
			HCfirst:         24000,
			ThresholdSigma:  0.1,
			WeakCellsPerRow: 2.0,
		}
	case "invulnerable":
		cfg.DRAM.Profile = dram.InvulnerableProfile()
	default:
		return fail(fmt.Errorf("unknown profile %q", *profile))
	}
	cfg.FTL.HammersPerIO = *amplify

	switch *mitigation {
	case "none":
	case "ecc":
		cfg.DRAM.ECC = true
	case "trr":
		cfg.DRAM.TRR = dram.DefaultTRR()
	case "para":
		cfg.DRAM.PARA = 0.02
	case "refresh2x":
		cfg.DRAM.RefreshWindow = 32 * sim.Millisecond
	case "cache":
		cfg.FTL.Cache.Enabled = true
		cfg.FTL.Cache.Lines = 1024
	case "ratelimit":
		cfg.AttackerMaxIOPS = 100_000
		cfg.VictimMaxIOPS = 100_000
	case "hashed":
		cfg.FTL.Hashed = true
		cfg.FTL.HashKey = *seed ^ 0xD00D
	case "extent-only":
		cfg.ForbidIndirect = true
	case "guard":
		gcfg := guard.DefaultConfig()
		cfg.Guard = &gcfg
	default:
		// Parameterized in-DRAM zoo specs: trr:<sampler>, para:<p>,
		// refresh:<scale> (docs/DEFENSES.md).
		mc, err := dram.ParseMitigation(*mitigation)
		if err != nil || mc.Mode == dram.MitNone {
			return fail(fmt.Errorf("unknown mitigation %q", *mitigation))
		}
		cfg.DRAM.Profile = cfg.DRAM.Profile.WithMitigation(mc)
	}

	if *faultRate < 0 || *faultRate > 1 {
		return fail(fmt.Errorf("-fault-rate must be in [0,1], got %g", *faultRate))
	}
	if *faultRate > 0 {
		p := faults.RatePlan(*faultRate)
		cfg.Faults = &p
	}
	robustOn := *robust || *faultRate > 0
	if robustOn {
		cfg.Robust = nvme.DefaultRobust()
	}

	fmt.Fprintf(stdout, "building testbed: %s, amplification x%d, mitigation %s\n",
		cfg.DRAM.Profile.Name, *amplify, *mitigation)
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		return fail(err)
	}
	id := tb.Device.Identify()
	fmt.Fprintf(stdout, "device: %s — %.1f GiB, %d namespaces, %s L2P\n",
		id.Model, float64(id.Capacity)/(1<<30), id.Namespaces, id.L2PKind)

	pat, err := attack.ParsePattern(*pattern)
	if err != nil {
		return fail(err)
	}
	if *pattern != "" {
		// -sync-decoys composes: it adds REF synchronization to whatever
		// shape -pattern selected.
		if *syncDecoys {
			pat.SyncDecoy = true
		}
		fmt.Fprintf(stdout, "hammer pattern: %s\n", pat)
	}
	if *victim != "" {
		pat.Iterations = *iters
		if err := runVictim(stdout, tb, *victim, pat, reg); err != nil {
			return fail(err)
		}
	} else {
		// The campaign honours -sync-decoys on the default shape too.
		if *syncDecoys {
			pat.SyncDecoy = true
		}
		runCampaign(stdout, tb, attack.CampaignConfig{
			SprayFiles:      *sprayFiles,
			TargetsPerFile:  *targets,
			MaxCycles:       *cycles,
			TriplesPerCycle: *triples,
			Pattern:         pat,
			Hunt:            *hunt,
		})
	}
	if robustOn {
		rs := tb.Device.RobustStats()
		fmt.Fprintf(stdout, "robustness: retries=%d timeouts=%d dropped=%d mediaErrs=%d failedCmds=%d readonly(now=%v entries=%d rejects=%d)\n",
			rs.Retries, rs.Timeouts, rs.DroppedCompletions, rs.MediaErrors,
			rs.TimedOutCmds+rs.AbortedCmds+rs.MediaFailedCmds,
			tb.Device.ReadOnly(), rs.ReadOnlyEntries, rs.ReadOnlyRejects)
	}
	if g := tb.Device.Guard(); g != nil {
		fmt.Fprintf(stdout, "guard: attacker-ns violations=%d, victim-ns violations=%d\n",
			g.Violations(tb.AttackerNS.ID), g.Violations(tb.VictimNS.ID))
	}
	if *verbose && len(tb.DRAM.Flips()) > 1 {
		var gaps stats.Sample
		evs := tb.DRAM.Flips()
		for i := 1; i < len(evs); i++ {
			gaps.Add(evs[i].Time.Sub(evs[i-1].Time).Seconds())
		}
		fmt.Fprintf(stdout, "inter-flip interval: median %.3fs p90 %.3fs max %.3fs (virtual)\n",
			gaps.Median(), gaps.Percentile(90), gaps.Max())
	}
	if *verbose {
		ds := tb.DRAM.Stats()
		fmt.Fprintf(stdout, "\nDRAM: activations=%d rowHits=%d flips=%d TRR=%d PARA=%d eccCorrected=%d eccFatal=%d\n",
			ds.Activations, ds.RowHits, ds.Flips, ds.TRRRefreshes, ds.PARARefreshes, ds.ECCCorrected, ds.ECCUncorrected)
		fs := tb.FTL.Stats()
		fmt.Fprintf(stdout, "FTL: hostReads=%d hostWrites=%d trims=%d gcRuns=%d moved=%d corruptReads=%d WA=%.2f\n",
			fs.HostReads, fs.HostWrites, fs.Trims, fs.GCRuns, fs.GCPagesMoved, fs.CorruptReads, tb.FTL.WriteAmplification())
		ns := tb.Flash.Stats()
		fmt.Fprintf(stdout, "NAND: reads=%d programs=%d erases=%d wearMax=%d\n",
			ns.Reads, ns.Programs, ns.Erases, ns.WearMax)
	}
	if reg != nil {
		reg.Flush()
		snap := reg.Snapshot(true)
		switch *metrics {
		case "table":
			fmt.Fprintln(stdout)
			if err := snap.WriteTable(stdout); err != nil {
				return fail(err)
			}
		case "json":
			if err := snap.WriteJSON(stdout); err != nil {
				return fail(err)
			}
		}
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				return fail(err)
			}
			if err := obs.WriteTraceHeader(f); err != nil {
				return fail(err)
			}
			if err := obs.WriteEventsJSONL(f, reg.Events()); err != nil {
				return fail(err)
			}
			if err := f.Close(); err != nil {
				return fail(err)
			}
			total, dropped := reg.TraceTotals()
			fmt.Fprintf(stdout, "trace: %d events written to %s (%d dropped from ring)\n",
				total-dropped, *trace, dropped)
		}
	}
	return 0
}

// runCampaign executes the classic §3/§4 leak campaign and prints its
// report.
func runCampaign(stdout io.Writer, tb *cloud.Testbed, ccfg attack.CampaignConfig) {
	rep, err := attack.NewCampaign(tb, ccfg).Run()
	if err != nil {
		fmt.Fprintf(stdout, "campaign stopped: %v\n", err)
	}
	fmt.Fprintf(stdout, "\ncycles:          %d\n", rep.Cycles)
	fmt.Fprintf(stdout, "spray files:     %d\n", rep.SpraysCreated)
	fmt.Fprintf(stdout, "hammer reads:    %d\n", rep.HammerReads)
	fmt.Fprintf(stdout, "bitflips:        %d\n", rep.FlipsInduced)
	fmt.Fprintf(stdout, "leaks detected:  %d\n", rep.LeaksDetected)
	fmt.Fprintf(stdout, "blocks dumped:   %d\n", rep.BlocksDumped)
	fmt.Fprintf(stdout, "virtual elapsed: %v\n", rep.Elapsed)
	if rep.SecretFound {
		excerpt := rep.SecretContent
		if len(excerpt) > 40 {
			excerpt = excerpt[:40]
		}
		fmt.Fprintf(stdout, "RESULT: victim data LEAKED: %q...\n", excerpt)
	} else {
		fmt.Fprintln(stdout, "RESULT: no leak (attack unsuccessful under this configuration)")
	}
}

// crossAllocator finds cross-partition bindings (attacker rows flanking
// victim-owned translation rows, §4.2) — the leak campaign's analysis —
// and readies the fast-read path of the first limit of them.
type crossAllocator struct {
	victimNSID, limit int
}

func (a crossAllocator) Allocate(dev *nvme.Device, ns *nvme.Namespace, path nvme.Path, sides int) ([]attack.Binding, error) {
	bindings, err := attack.Analyze(dev, ns, attack.AnalyzeOptions{VictimNSID: a.victimNSID, Sides: sides})
	if err != nil {
		return nil, err
	}
	bindings = bindings[:min(len(bindings), a.limit)]
	for i := range bindings {
		if err := attack.PinAndTrim(dev, ns, path, &bindings[i]); err != nil {
			return nil, err
		}
	}
	return bindings, nil
}

// runVictim drives one victim scenario from the internal/victims zoo
// through the attack pipeline on the testbed device: arm the victim
// stack in the victim tenant, hammer the pattern over cross-partition
// bindings, and report what the software above the device observed
// (docs/VICTIMS.md).
func runVictim(stdout io.Writer, tb *cloud.Testbed, kind string, pat attack.Pattern, reg *obs.Registry) error {
	dev := tb.Device
	pipe := &attack.Pipeline{
		Dev: dev, NS: tb.AttackerNS, Path: nvme.PathDirect,
		Alloc:    crossAllocator{victimNSID: tb.VictimNS.ID, limit: 4},
		Hammerer: &attack.DeviceHammerer{Dev: dev, NS: tb.AttackerNS, Path: nvme.PathDirect},
		Obs:      reg,
	}
	var detail func() string
	switch kind {
	case "fs", "fs-hardened":
		v := &victims.FSVictim{
			Dev: dev, NS: tb.VictimNS, Path: nvme.PathDirect,
			Journal: kind == "fs-hardened", MetaChecksum: kind == "fs-hardened",
			Obs: reg,
		}
		pipe.Victim = v
		detail = func() string { return v.Detail().String() }
	case "kv":
		v := &victims.KVVictim{Dev: dev, NS: tb.VictimNS, Path: nvme.PathDirect, Obs: reg}
		pipe.Victim = v
		detail = func() string { return v.Detail().String() }
	case "gc", "gc-churn":
		v := &victims.GCVictim{
			Dev: dev, NS: tb.VictimNS, Path: nvme.PathDirect,
			MaxLines: 2, NoInterleave: kind == "gc", Obs: reg,
		}
		pipe.Victim = v
		if kind == "gc-churn" {
			pipe.Hammerer = &victims.ChurnHammerer{
				Inner: pipe.Hammerer, Dev: dev,
				ChurnNS: tb.AttackerNS, Path: nvme.PathDirect,
			}
		}
		detail = func() string { return v.Detail().String() }
	default:
		return fmt.Errorf("unknown victim %q (want fs | fs-hardened | kv | gc | gc-churn)", kind)
	}
	fmt.Fprintf(stdout, "victim scenario: %s, pattern %s x%d\n", kind, pat, pat.Iterations)
	res, err := pipe.Run(pat)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nbindings:   %d hammered of %d\n", res.Hammered, res.Bindings)
	fmt.Fprintf(stdout, "bitflips:   %d (mitigation refreshes %d, guard blacklists %d)\n",
		res.Flips, res.MitRefreshes, res.Blacklists)
	fmt.Fprintf(stdout, "victim:     checked=%d corrupted=%d remapped=%d\n",
		res.Victim.Checked, res.Victim.Corrupted, res.Victim.Remapped)
	fmt.Fprintf(stdout, "detail:     %s\n", detail())
	if res.Victim.Corrupted > 0 {
		fmt.Fprintln(stdout, "RESULT: victim observed CORRUPTION")
	} else {
		fmt.Fprintln(stdout, "RESULT: victim intact under this configuration")
	}
	return nil
}

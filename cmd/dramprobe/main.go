// Command dramprobe is the attacker's online templating tool (§4.2
// "hammering stage"): given a device configuration, it enumerates the
// candidate aggressor/victim row triples reachable from the attacker's
// partition, hammers each through ordinary device reads, and reports which
// victim rows are actually rowhammerable on this particular device
// instance — "rowhammerability is determined primarily by variation in
// the manufacturing process and must be tested online".
package main

import (
	"flag"
	"fmt"
	"os"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 1, "device seed (each seed is a different physical device)")
		hcfirst = flag.Uint64("hcfirst", 24000, "flip threshold (disturbances per 64 ms window)")
		density = flag.Float64("density", 0.8, "expected weak cells per row")
		limit   = flag.Int("limit", 0, "max candidates to probe (0 = all)")
		budget  = flag.Int("pairs", 0, "hammer pairs per candidate (0 = auto)")
	)
	flag.Parse()

	flash := nand.HalfGeometry()
	cfg := cloud.Config{
		Device: fleet.DeviceSpec{
			Tenants: 2,
			Amplify: 1,
			DRAM: &dram.Config{
				Geometry: dram.SSDGeometry(),
				Timing:   dram.DefaultTiming(),
				Profile: dram.Profile{
					Name:            "probe target",
					HCfirst:         *hcfirst,
					ThresholdSigma:  0.2,
					WeakCellsPerRow: *density,
				},
				// Single-tenant view: the probe templates rows it can
				// observe, i.e. its own partition.
				Mapping: dram.MapperConfig{XorBank: true},
			},
			Flash: &flash,
		},
		VictimFillBlocks: 512,
		Seed:             *seed,
	}
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		fatal(err)
	}
	dev, ns := tb.Device, tb.AttackerNS
	plans, err := attack.Analyze(dev, ns, attack.AnalyzeOptions{})
	if err != nil {
		fatal(err)
	}
	if *limit > 0 && len(plans) > *limit {
		plans = plans[:*limit]
	}
	fmt.Printf("device seed %d: probing %d candidate triples (threshold %d, required rate %.2f M/s)\n",
		*seed, len(plans), *hcfirst, attack.RequiredRate(dev)/1e6)

	pat := attack.DoublePattern()
	pat.Iterations = *budget
	results, err := attack.Template(dev, ns, nvme.PathDirect, plans, pat)
	if err != nil {
		fatal(err)
	}
	vulnerable := 0
	fmt.Printf("%-6s %-6s %-10s %-12s %s\n", "ch/bk", "victim", "aggressors", "vulnerable", "observation")
	for _, r := range results {
		tr := r.Binding.Triple
		mark := ""
		if r.Vulnerable {
			vulnerable++
			mark = r.Observation
		}
		fmt.Printf("%d/%-4d %-6d %-4d %-5d %-12v %s\n",
			tr.Channel, tr.Bank, tr.VictimRow, tr.AggRows[0], tr.AggRows[1], r.Vulnerable, mark)
	}
	fmt.Printf("\n%d/%d victim rows are hammerable on this device\n", vulnerable, len(results))
	if vulnerable == 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dramprobe:", err)
	os.Exit(1)
}

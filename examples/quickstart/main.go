// Quickstart: build an emulated SSD stack (DRAM + NAND + FTL + NVMe),
// issue ordinary reads and writes, then run the paper's Figure 1 attack
// primitive — a double-sided rowhammer through nothing but NVMe reads —
// and watch a logical block silently remap to a different physical page.
package main

import (
	"fmt"
	"log"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
)

func main() {
	// A 512 MiB SSD with 1 GiB-class DRAM whose cells flip after 24000
	// disturbances per 64 ms refresh window — a deliberately weak module
	// so the demo completes instantly. dram.TestbedProfile() is the
	// paper-faithful alternative.
	flash := nand.HalfGeometry()
	cfg := cloud.Config{
		Device: fleet.DeviceSpec{
			Tenants: 2,
			Amplify: 1,
			DRAM: &dram.Config{
				Geometry: dram.SSDGeometry(),
				Timing:   dram.DefaultTiming(),
				Profile: dram.Profile{
					Name:            "demo-weak DDR3",
					HCfirst:         24000,
					ThresholdSigma:  0.1,
					WeakCellsPerRow: 2.0,
				},
				// Plain bank-XOR mapping: the single-tenant Figure 1 setting.
				Mapping: dram.MapperConfig{XorBank: true},
			},
			Flash: &flash,
		},
		VictimFillBlocks: 512,
		Seed:             7,
	}
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		log.Fatal(err)
	}
	id := tb.Device.Identify()
	fmt.Printf("device: %s (%.1f GiB, block %d B, %s L2P)\n",
		id.Model, float64(id.Capacity)/(1<<30), id.BlockBytes, id.L2PKind)

	// Ordinary I/O through the NVMe front end.
	dev, ns := tb.Device, tb.AttackerNS
	buf := make([]byte, tb.Device.BlockBytes())
	copy(buf, "hello flash")
	if err := tb.Device.Write(tb.AttackerNS, 42, buf, nvme.PathDirect); err != nil {
		log.Fatal(err)
	}
	got := make([]byte, len(buf))
	if _, err := tb.Device.Read(tb.AttackerNS, 42, got, nvme.PathDirect); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("normal I/O: wrote and read back %q\n", got[:11])

	// Offline analysis: which of my LBAs' translations share DRAM rows?
	plans, err := attack.Analyze(dev, ns, attack.AnalyzeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline analysis: %d aggressor/victim row triples available\n", len(plans))

	// Prepare the victim rows (sequential writes -> mapped entries),
	// then hammer with ordinary reads of two trimmed LBAs.
	pat := attack.DoublePattern()
	pat.Iterations = attack.WindowBudget(dev, 2)
	h := &attack.DeviceHammerer{Dev: dev, NS: ns, Path: nvme.PathDirect}
	for n, plan := range plans {
		for _, g := range plan.VictimGlobalLBAs {
			for k := ftl.LBA(0); k < 16; k++ {
				if g+k >= ns.StartLBA && uint64(g+k-ns.StartLBA) < ns.NumLBAs {
					if err := attack.PrepareRange(dev, ns, nvme.PathDirect, g+k-ns.StartLBA, 1); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
		before := map[ftl.LBA]nand.PPN{}
		for _, g := range plan.VictimGlobalLBAs {
			for k := ftl.LBA(0); k < 16; k++ {
				before[g+k] = tb.FTL.PPNOf(g + k)
			}
		}
		if err := attack.PinAndTrim(dev, ns, nvme.PathDirect, &plan); err != nil {
			log.Fatal(err)
		}
		if err := h.Hammer(plan, pat); err != nil {
			log.Fatal(err)
		}
		for lba, old := range before {
			if now := tb.FTL.PPNOf(lba); now != old {
				fmt.Printf("hammered rows %v around victim row %d (bank %d)\n",
					plan.Triple.AggRows, plan.Triple.VictimRow, plan.Triple.Bank)
				fmt.Printf("BITFLIP: LBA %d silently remapped PPN %#x -> %#x\n", lba, old, now)
				fmt.Println("-> reads of that LBA now return another page's data")
				return
			}
		}
		if n > 16 {
			break
		}
	}
	fmt.Println("no flips with this seed — try another")
}

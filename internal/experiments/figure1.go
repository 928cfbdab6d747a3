package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// Figure1 reproduces the paper's Figure 1: a two-sided FTL rowhammering
// attack in the single-tenant setting. After a sequential write setup, a
// read workload alternating between LBAs whose L2P entries live in the two
// aggressor rows flips a bit in the victim row, redirecting a logical
// block to a different physical address.
func Figure1(w io.Writer, opt Options) error {
	section(w, "Figure 1", "two-sided FTL rowhammering redirects an L2P entry")

	cfg := quickTestbedConfig(0xF1)
	if !opt.Quick {
		cfg = paperTestbedConfig(0xF1)
	}
	// Single-tenant: plain row mapping so same-owner triples exist.
	cfg.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
	cfg.Device.Amplify = 1
	cfg.Obs = opt.Obs
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		return err
	}
	dev, ns := tb.Device, tb.AttackerNS
	plans, err := attack.Analyze(dev, ns, attack.AnalyzeOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "offline analysis: %d candidate aggressor/victim row triples\n", len(plans))

	// Setup phase: sequential writes populate the victim rows' L2P
	// entries, so the firmware allocates physical pages for them (the
	// Figure 1 "initial sequential write setup").
	prepared := 0
	for i, plan := range plans {
		if i >= 24 {
			break
		}
		for _, g := range plan.VictimGlobalLBAs {
			for k := ftl.LBA(0); k < 16; k++ {
				lba := g + k
				if lba < ns.StartLBA || uint64(lba-ns.StartLBA) >= ns.NumLBAs {
					continue
				}
				if err := attack.PrepareRange(dev, ns, nvme.PathDirect, lba-ns.StartLBA, 1); err != nil {
					return err
				}
				prepared++
			}
		}
	}
	fmt.Fprintf(w, "setup: sequential writes populated %d L2P entries\n", prepared)

	pat := attack.DoublePattern()
	pat.Iterations = attack.WindowBudget(dev, 2)
	h := &attack.DeviceHammerer{Dev: dev, NS: ns, Path: nvme.PathDirect}
	snapshot := func(plan attack.Binding) map[ftl.LBA]uint32 {
		m := make(map[ftl.LBA]uint32)
		for _, g := range plan.VictimGlobalLBAs {
			for k := ftl.LBA(0); k < 16; k++ {
				m[g+k] = uint32(tb.FTL.PPNOf(g + k))
			}
		}
		return m
	}
	maxPlans := 24
	if !opt.Quick {
		maxPlans = 64
	}
	for i, plan := range plans {
		if i >= maxPlans {
			break
		}
		before := snapshot(plan)
		// Trim the two hammer LBAs so their reads skip flash and run at
		// interface speed (§3: trimmed-block acceleration).
		if err := attack.PinAndTrim(dev, ns, nvme.PathDirect, &plan); err != nil {
			return err
		}
		if err := h.Hammer(plan, pat); err != nil {
			return err
		}
		for lba, old := range before {
			now := uint32(tb.FTL.PPNOf(lba))
			if now != old {
				fmt.Fprintf(w, "aggressor rows %d/%d (bank %d): victim row %d\n",
					plan.Triple.AggRows[0], plan.Triple.AggRows[1], plan.Triple.Bank, plan.Triple.VictimRow)
				fmt.Fprintf(w, "BITFLIP: LBA %d remapped PBA %#x -> PBA %#x (xor %#x)\n",
					lba, old, now, old^now)
				fmt.Fprintf(w, "reads of LBA %d now return a different physical block's data\n", lba)
				return nil
			}
		}
	}
	return fmt.Errorf("experiments: figure 1 produced no redirection (try another seed)")
}

package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/core"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
)

// Blast measures the fleet's blast radius: how far one aggressor tenant's
// FTL rowhammer reaches when tenants are sharded across devices
// (docs/FLEET.md). The attack's physical medium is the device-controller
// DRAM holding the L2P table, so its reach ends exactly at the device
// boundary: a co-located victim shares the aggressor's DRAM module and
// its translations can sit between aggressor rows, while a victim on
// another device shares no DRAM at all — nothing the aggressor does can
// activate a row there.
//
// For each placement policy the experiment builds a 2-device fleet with 2
// tenants per device, runs the §4.2 cross-partition attack from tenant 1
// against its co-located neighbor, and verifies the two claims:
//
//   - co-located: the offline analysis finds aggressor/victim triples and
//     hammering remaps one of the victim's L2P entries;
//   - remote: every other device's state hash is byte-identical before
//     and after the campaign and its DRAM saw zero activations.
//
// Placement is therefore the blast-radius dial: spread separates
// consecutive tenants onto different devices, pack stacks them together.
func Blast(w io.Writer, opt Options) error {
	section(w, "BLAST", "fleet blast radius: placement bounds rowhammer reach to one device")

	for _, policy := range []fleet.Policy{fleet.PolicySpread, fleet.PolicyPack} {
		if err := blastUnder(w, opt, policy); err != nil {
			return fmt.Errorf("experiments: blast under %s: %w", policy, err)
		}
	}
	fmt.Fprintf(w, "verdict: blast radius = one device (co-located victims exposed, cross-device victims untouched)\n")
	return nil
}

// blastSpec is the per-device build recipe: the scaled (quick) or paper
// testbed DRAM, x5 firmware amplification.
func blastSpec(quick bool) fleet.DeviceSpec {
	dcfg := dram.Config{
		Geometry: dram.SSDGeometry(),
		Profile:  dram.TestbedProfile(),
		Mapping: dram.MapperConfig{
			Twist:      dram.TwistInterleave,
			TwistGroup: 16,
			XorBank:    true,
		},
	}
	geom := nand.DefaultGeometry()
	if quick {
		dcfg.Profile = dram.Profile{
			Name:            "scaled testbed DDR3",
			HCfirst:         24000,
			ThresholdSigma:  0.1,
			WeakCellsPerRow: 2.0,
		}
		dcfg.Mapping.TwistGroup = 8
		geom = nand.Geometry{
			Channels:      4,
			DiesPerChan:   2,
			PlanesPerDie:  2,
			BlocksPerPlan: 32,
			PagesPerBlock: 256,
			PageBytes:     4096,
		}
	}
	return fleet.DeviceSpec{
		Tenants: 2,
		Amplify: 5,
		DRAM:    &dcfg,
		Flash:   &geom,
	}
}

func blastUnder(w io.Writer, opt Options, policy fleet.Policy) error {
	f, err := fleet.New(fleet.Config{
		Devices:   2,
		Spec:      blastSpec(opt.Quick),
		Seed:      0xB1A57,
		Placement: fleet.Placement{Policy: policy},
		Obs:       opt.Obs,
	})
	if err != nil {
		return err
	}

	const aggressor = 1
	aggRoute, err := f.Table().Lookup(aggressor)
	if err != nil {
		return err
	}
	var coTenants, remoteTenants []int
	for _, t := range f.Table().Tenants() {
		if t == aggressor {
			continue
		}
		r, err := f.Table().Lookup(t)
		if err != nil {
			return err
		}
		if r.Device == aggRoute.Device {
			coTenants = append(coTenants, t)
		} else {
			remoteTenants = append(remoteTenants, t)
		}
	}
	fmt.Fprintf(w, "placement %s: aggressor tenant %d on device %d; co-located victims %v, remote victims %v\n",
		policy, aggressor, aggRoute.Device, coTenants, remoteTenants)

	// Fingerprint every remote device before the campaign. The members are
	// built but not serving, so this goroutine owns their state.
	type remoteState struct {
		tenant      int
		device      int
		hash        uint64
		activations uint64
	}
	var remotes []remoteState
	for _, t := range remoteTenants {
		r, err := f.Table().Lookup(t)
		if err != nil {
			return err
		}
		bd := f.Member(r.Device).BD
		remotes = append(remotes, remoteState{
			tenant:      t,
			device:      r.Device,
			hash:        bd.Device.StateHash(),
			activations: bd.Device.DRAM().Stats().Activations,
		})
	}

	// The co-located attack: §4.2 cross-partition analysis and hammering
	// against the neighbor sharing the aggressor's DRAM module.
	dev := f.Member(aggRoute.Device).BD.Device
	aggNS, ok := dev.NamespaceByID(aggRoute.NSID)
	if !ok {
		return fmt.Errorf("no namespace %d on device %d", aggRoute.NSID, aggRoute.Device)
	}
	victim := coTenants[0]
	vicRoute, err := f.Table().Lookup(victim)
	if err != nil {
		return err
	}
	vicNS, ok := dev.NamespaceByID(vicRoute.NSID)
	if !ok {
		return fmt.Errorf("no namespace %d on device %d", vicRoute.NSID, vicRoute.Device)
	}

	atk := core.NewAttacker(dev, aggNS, nvme.PathDirect)
	plans, err := atk.AnalyzeCrossPartition(vicNS.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  offline analysis vs tenant %d (same device): %d cross-partition triples\n",
		victim, len(plans))

	// Populate the victim's translations sitting in the candidate victim
	// rows, so a flip has a live L2P entry to redirect.
	qp, err := dev.NewQueuePair(vicNS, nvme.PathDirect, 32)
	if err != nil {
		return err
	}
	data := make([]byte, dev.FTL().BlockBytes())
	for i := range data {
		data[i] = 0xA5
	}
	prepare := func(plan core.HammerPlan) error {
		n := 0
		for _, g := range plan.VictimGlobalLBAs {
			for k := ftl.LBA(0); k < 16; k++ {
				lba := g + k
				if lba < vicNS.StartLBA || uint64(lba-vicNS.StartLBA) >= vicNS.NumLBAs {
					continue
				}
				if err := qp.Submit(nvme.Command{Op: nvme.OpWrite, LBA: lba - vicNS.StartLBA, Buf: data}); err != nil {
					return err
				}
				n++
				if n%qp.Depth() == 0 {
					qp.Ring()
					qp.Completions()
				}
			}
		}
		qp.Ring()
		qp.Completions()
		return nil
	}
	// snapshot records the victim translations in plan order
	// (VictimGlobalLBAs, then k ascending), so the first remapped LBA
	// reported is the same on every run.
	type mapping struct {
		lba ftl.LBA
		ppn uint32
	}
	snapshot := func(plan core.HammerPlan) []mapping {
		var ms []mapping
		for _, g := range plan.VictimGlobalLBAs {
			for k := ftl.LBA(0); k < 16; k++ {
				ms = append(ms, mapping{g + k, uint32(dev.FTL().PPNOf(g + k))})
			}
		}
		return ms
	}

	budget := int(atk.RequiredRate()*0.064) * 2
	maxPlans := 24
	if !opt.Quick {
		maxPlans = 64
	}
	hit := false
	for i, plan := range plans {
		if i >= maxPlans {
			break
		}
		if err := prepare(plan); err != nil {
			return err
		}
		before := snapshot(plan)
		fast := plan
		fast.AggLBAs = [2][]ftl.LBA{{plan.AggLBAs[0][0]}, {plan.AggLBAs[1][0]}}
		if err := atk.TrimRange(fast.AggLBAs[0][0], 1); err != nil {
			return err
		}
		if err := atk.TrimRange(fast.AggLBAs[1][0], 1); err != nil {
			return err
		}
		if err := atk.Hammer(fast, core.HammerOptions{Pairs: budget}); err != nil {
			return err
		}
		for _, old := range before {
			now := uint32(dev.FTL().PPNOf(old.lba))
			if now != old.ppn {
				fmt.Fprintf(w, "  BLAST: co-located tenant %d hit — LBA %d remapped PBA %#x -> PBA %#x (plan %d, victim row %d)\n",
					victim, old.lba, old.ppn, now, i, plan.Triple.VictimRow)
				hit = true
				break
			}
		}
		if hit {
			break
		}
	}
	if !hit {
		return fmt.Errorf("no co-located redirection within %d plans (try another seed)", maxPlans)
	}

	// The campaign is over; every remote device must be bit-for-bit where
	// it started.
	for _, rs := range remotes {
		bd := f.Member(rs.device).BD
		hash := bd.Device.StateHash()
		acts := bd.Device.DRAM().Stats().Activations - rs.activations
		if hash != rs.hash {
			return fmt.Errorf("remote device %d state hash changed %#x -> %#x: blast crossed the device boundary",
				rs.device, rs.hash, hash)
		}
		if acts != 0 {
			return fmt.Errorf("remote device %d saw %d DRAM activations during the attack", rs.device, acts)
		}
		fmt.Fprintf(w, "  remote tenant %d (device %d): state hash unchanged, 0 attack-era DRAM activations\n",
			rs.tenant, rs.device)
	}
	return nil
}

package fleet

import (
	"fmt"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/guard"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// DeviceSpec describes one simulated device. It is the one device
// builder: cmd/hammerd, cmd/ftlreplay, the fleet layer, the §4.1 cloud
// testbed (cloud.Config.Device), the experiments and the perf fixtures
// all assemble devices through it. Two devices built from equal specs
// and equal seeds have equal nvme config digests — the precondition for
// migrating a checkpoint between them.
type DeviceSpec struct {
	// Profile names the DRAM fault model and the default flash size:
	// "testbed", "weak" or "invulnerable" (see ProfileConfig). DRAM and
	// Flash override what it selects.
	Profile string
	// Tenants is how many equal namespaces are carved from the device.
	Tenants int
	// Amplify is the firmware hammers-per-IO knob (paper testbed: 5).
	Amplify int
	// FaultRate drives the standard device fault mix (faults.RatePlan);
	// non-zero implies the robustness policy.
	FaultRate float64
	// Faults, when non-nil, is an explicit injection plan used INSTEAD
	// of the FaultRate-derived mix (ConnFaultRate still composes on
	// top). Experiments use it to aim single deterministic faults —
	// e.g. one KindDRAMBitFlip at a chosen L2P entry.
	Faults *faults.Plan
	// ConnFaultRate adds per-batch connection resets for the transport.
	ConnFaultRate float64
	// Robust enables the NVMe retry/timeout/degradation policy even at
	// fault rate zero.
	Robust bool
	// MaxIOPS, when non-zero, statically rate-limits every namespace.
	MaxIOPS float64
	// DRAM, when non-nil, overrides the profile-derived DRAM config
	// entirely and is used as given; only the Seed field is stamped by
	// Build. That includes Timing: a zero Timing means no tRC/tFAW
	// command-rate limit, not the default timing.
	DRAM *dram.Config
	// Flash, when non-nil, overrides the profile-derived NAND geometry.
	Flash *nand.Geometry
	// Cache, Hashed and HashKey configure the FTL's L2P table (see
	// ftl.Config): an entry cache and the keyed hashed layout, both §5
	// mitigations.
	Cache   ftl.CacheConfig
	Hashed  bool
	HashKey uint64
	// Guard, when non-nil, attaches the firmware-side Bloom-filter
	// hammer guard (internal/guard) with this configuration.
	Guard *guard.Config
}

// fillDefaults normalizes the zero value to hammerd's historical defaults.
func (sp *DeviceSpec) fillDefaults() {
	if sp.Profile == "" {
		sp.Profile = "weak"
	}
	if sp.Tenants == 0 {
		sp.Tenants = 4
	}
	if sp.Amplify == 0 {
		sp.Amplify = 1
	}
}

// Validate rejects specs the builder would misassemble.
func (sp DeviceSpec) Validate() error {
	if sp.Tenants < 1 || sp.Tenants > 0xFFFF {
		return fmt.Errorf("fleet: tenants per device must be in [1, 65535], got %d", sp.Tenants)
	}
	if sp.FaultRate < 0 || sp.FaultRate > 1 || sp.ConnFaultRate < 0 || sp.ConnFaultRate > 1 {
		return fmt.Errorf("fleet: fault rates must be in [0,1]")
	}
	_, _, err := ProfileConfig(sp.Profile)
	return err
}

// ProfileConfig returns the DRAM config and flash geometry of a named
// device profile, with the Seed field left zero. Every profile uses the
// SSD DRAM geometry, default timing and the reverse-engineered mapping
// (bank XOR + row interleave). "testbed" is the paper's §4.1 device:
// vulnerable testbed DRAM on 1 GiB of flash. "weak" (a scaled DDR that
// flips after 24k disturbances) and "invulnerable" sit on 512 MiB.
func ProfileConfig(name string) (dram.Config, nand.Geometry, error) {
	dcfg := dram.Config{
		Geometry: dram.SSDGeometry(),
		Timing:   dram.DefaultTiming(),
		Mapping: dram.MapperConfig{
			Twist:      dram.TwistInterleave,
			TwistGroup: 8,
			XorBank:    true,
		},
	}
	geom := nand.HalfGeometry()
	switch name {
	case "testbed":
		dcfg.Profile = dram.TestbedProfile()
		dcfg.Mapping.TwistGroup = 16
		geom = nand.DefaultGeometry()
	case "weak":
		dcfg.Profile = dram.Profile{
			Name:            "weak DDR (scaled)",
			HCfirst:         24000,
			ThresholdSigma:  0.1,
			WeakCellsPerRow: 2.0,
		}
	case "invulnerable":
		dcfg.Profile = dram.InvulnerableProfile()
	default:
		return dram.Config{}, nand.Geometry{}, fmt.Errorf("fleet: unknown profile %q", name)
	}
	return dcfg, geom, nil
}

// BuiltDevice is one assembled device with the parts its owner needs to
// serve, fault and checkpoint it.
type BuiltDevice struct {
	Device   *nvme.Device
	World    *sim.World
	Injector *faults.Injector
	// PerNS is each namespace's size in LBAs.
	PerNS uint64
	// ProfileName names the DRAM profile actually used.
	ProfileName string
}

// Build assembles a device from the spec under the given seed. The
// registry (nil allowed) becomes the device world's observability sink.
func (sp DeviceSpec) Build(seed uint64, reg *obs.Registry) (*BuiltDevice, error) {
	sp.fillDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}

	dcfg, geom, err := ProfileConfig(sp.Profile)
	if err != nil {
		return nil, err
	}
	if sp.DRAM != nil {
		dcfg = *sp.DRAM
	}
	if sp.Flash != nil {
		geom = *sp.Flash
	}
	dcfg.Seed = seed

	plan := faults.RatePlan(sp.FaultRate)
	if sp.Faults != nil {
		plan = *sp.Faults
	}
	if sp.ConnFaultRate > 0 {
		plan = plan.With(faults.Rule{Kind: faults.KindConnReset, Probability: sp.ConnFaultRate})
	}

	world := sim.NewWorld(seed)
	world.Obs = reg
	inj := faults.New(plan, world)
	mem := dram.New(dcfg, world)
	flash := nand.New(geom, nand.DefaultLatency(), nand.WithFaults(inj))
	fcfg := ftl.Config{
		NumLBAs:      geom.TotalPages() * 15 / 16,
		HammersPerIO: sp.Amplify,
		Cache:        sp.Cache,
		Hashed:       sp.Hashed,
		HashKey:      sp.HashKey,
	}
	f, err := ftl.New(fcfg, mem, flash)
	if err != nil {
		return nil, err
	}
	f.SetFaults(inj)
	ncfg := nvme.Config{Faults: inj}
	if sp.Robust || sp.FaultRate > 0 {
		ncfg.Robust = nvme.DefaultRobust()
	}
	dev := nvme.New(ncfg, f, mem, flash, world)
	per := f.NumLBAs() / uint64(sp.Tenants)
	if per == 0 {
		return nil, fmt.Errorf("fleet: device too small for %d tenants", sp.Tenants)
	}
	for i := 0; i < sp.Tenants; i++ {
		if _, err := dev.AddNamespace(per, sp.MaxIOPS); err != nil {
			return nil, err
		}
	}
	if sp.Guard != nil {
		dev.AttachGuard(guard.New(*sp.Guard))
	}
	return &BuiltDevice{
		Device:      dev,
		World:       world,
		Injector:    inj,
		PerNS:       per,
		ProfileName: dcfg.Profile.Name,
	}, nil
}

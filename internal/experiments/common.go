package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/sim"
)

// section prints an experiment header.
func section(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s: %s ===\n", id, title)
}

// hammerModule drives a double-sided hammer directly against a DRAM module
// at the given total access rate, for the given virtual duration, and
// reports whether any bit flipped. Used by the rate-threshold experiments.
// It routes through the shared attack.ModuleHammerer so a guard attached
// via guardedModuleHammerer counts activations exactly like the device
// path; with no guard the sequence is unchanged.
func hammerModule(m *dram.Module, clk *sim.Clock, victimRow int, rate float64, dur sim.Duration) bool {
	h := attack.ModuleHammerer{Mod: m, Clk: clk}
	return h.HammerRows(victimRow, rate, dur)
}

// fillVictimRow writes 0xFF over a row so true-cells have charge to lose.
// The row-address scratch slice is reused across calls: pass the previous
// return value (or nil) to keep the enumeration allocation-free in loops.
func fillVictimRow(m *dram.Module, row int, scratch []uint64) ([]uint64, error) {
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xFF
	}
	scratch = m.Mapper().AppendRowAddrs(scratch[:0], dram.Location{Bank: 0, Row: row}, 64)
	for _, addr := range scratch {
		if err := m.Write(addr, buf); err != nil {
			return scratch, err
		}
	}
	return scratch, nil
}

// paperTestbedConfig is the §4.1 cloud environment at full scale
// (cloud.DefaultConfig: 1 GiB SSD, testbed-vulnerable DRAM, x5
// amplification) under the given seed, with the profile's DRAM config
// spelled out so experiments can edit it.
func paperTestbedConfig(seed uint64) cloud.Config {
	cfg := cloud.DefaultConfig()
	dcfg, _, _ := fleet.ProfileConfig(cfg.Device.Profile) // a built-in profile: no error
	cfg.Device.DRAM = &dcfg
	cfg.Seed = seed
	return cfg
}

// quickTestbedConfig is a scaled testbed for fast runs: the weak
// device profile (512 MiB SSD, softer flip threshold) under its own DRAM
// profile name, still at x5; the shape of every result is preserved.
func quickTestbedConfig(seed uint64) cloud.Config {
	cfg := cloud.DefaultConfig()
	cfg.Device.Profile = "weak"
	dcfg, _, _ := fleet.ProfileConfig(cfg.Device.Profile) // a built-in profile: no error
	dcfg.Profile.Name = "scaled testbed DDR3"
	cfg.Device.DRAM = &dcfg
	cfg.VictimFillBlocks = 6144
	cfg.Seed = seed
	return cfg
}

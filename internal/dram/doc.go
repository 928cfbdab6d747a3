// Package dram simulates the SSD's on-board DRAM at bank/row granularity,
// including the rowhammer disturbance-error fault model the whole
// reproduction rests on, and an in-DRAM mitigation zoo for defense
// studies.
//
// The model captures exactly the physics the paper's feasibility argument
// depends on:
//
//   - Banks hold an open row (row buffer). Repeated reads to the open row
//     are row hits and do NOT re-activate it; hammering requires forcing
//     alternating activations in one bank, which is why the attack reads
//     two aggressor LBA groups in turn (§3.1).
//   - Every activation of a row disturbs its physical neighbours. Each row
//     accumulates a disturbance count that resets when the row is
//     refreshed (every RefreshWindow, default 64 ms, per §2.2).
//   - A sparse population of weak cells flips once a row's in-window
//     disturbance crosses the cell's threshold. Thresholds are calibrated
//     per DDR generation from the paper's Table 1.
//   - The memory-controller address mapping XOR-spreads physical addresses
//     across channels/ranks/banks and remaps row indices non-monotonically
//     (§4.2), which is what lets aggressor rows in the attacker's partition
//     sandwich a victim row holding another tenant's L2P entries.
//
// Flips are applied to the actual backing bytes, so corrupted data really
// propagates to whatever the DRAM stores — in this repository, the FTL's
// logical-to-physical table.
//
// Snapshots (Save, SaveTo) hold only mutable model state; derived per-row
// state such as the cached refresh-epoch span is never snapshotted and is
// recomputed on first use after a load.
//
// Three mitigation families are modeled, selectable per profile through
// MitigationConfig (ParseMitigation accepts "trr[:n]", "para[:p]",
// "refresh[:n]") or directly via the Config knobs:
//
//   - TRR (Target Row Refresh): a per-bank sampler of at most
//     SamplerSize aggressor candidates; at every refresh-command
//     boundary (tREFI) the sampled rows' neighbours are refreshed. A
//     full sampler silently drops further aggressors — the TRRespass
//     weakness — counted in Stats.TRRDropped.
//   - PARA (Probabilistic Adjacent Row Activation): every activation
//     refreshes its neighbours with probability PARA, drawn from a
//     dedicated mitigation RNG stream (seed ^ 0xd1a0_0002) so enabling
//     it never perturbs other stochastic choices and the stream itself
//     survives Checkpoint/Restore byte-identically.
//   - Refresh-rate scaling: shortening RefreshWindow (the §5 "increase
//     refresh rate" option) divides the time an attacker has to reach
//     HCfirst disturbances.
//
// Their effectiveness and benign-workload cost are compared head-to-head
// by the "mitig" and "defenses" experiments (docs/DEFENSES.md).
//
// When the module's world carries an obs.Registry, the module projects its
// counters into dram_* and dram_mitigation_* metrics at Flush time, keeps
// a per-bank activation distribution, and emits dram.flip,
// dram.ecc_uncorrectable and dram.trr_refresh trace events as they happen
// (see docs/METRICS.md). Without a registry the hot path pays only a nil
// check on those rare events.
package dram

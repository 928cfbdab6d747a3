// Package attack implements the paper's contribution, FTL rowhammering,
// as composable stages: an unprivileged attacker that uses an SSD
// strictly as intended (reads, writes, trims) still flips bits in the
// device's internal DRAM, corrupting logical-to-physical translations to
// leak or hijack other tenants' data.
//
// The pipeline has three pluggable roles, mirroring how SWAGE-style
// frameworks factor DRAM attacks:
//
//   - Allocator places attacker state over the FTL (contiguous,
//     sprayed, fragmented) and derives hammerable Bindings: per-side
//     LBA groups whose L2P lookups activate each aggressor row, the
//     victim entries in between, and an optional decoy row.
//   - Hammerer drives a declarative Pattern against a Binding: the
//     classic single-, double- and one-location shapes plus
//     TRRespass/ZenHammer-style non-uniform ones — per-slot firing
//     frequencies and phases, extra sides, decoy reads, and
//     REF-synchronized decoys. DeviceHammerer is the one device-path
//     hammer loop.
//   - Victim observes corruption: the ext4 indirect-block victim
//     (Sprayer) or the raw-LBA canary victim that snapshots L2P
//     translations directly.
//
// Pipeline wires the three together. Campaign runs the paper's §4.2
// spray → hammer → scan exploit loop end to end on a cloud testbed,
// and Template is the online rowhammerability test that precedes it.
// The §3.1 primitives (Analyze, PrepareRange, PinAndTrim,
// RequiredRate, MeasuredRate, WindowBudget) are plain functions over a
// device, a namespace and a path.
//
// On top sits Fuzzer: a seeded, deterministic search over pattern
// space whose fitness is "bit flips induced while the firmware guard
// and the in-DRAM mitigation stay silent". Winning patterns are
// reduced with the budgeted replay shrinker into checked-in golden
// attacks (see docs/ATTACKS.md and the fuzz experiment row).
package attack

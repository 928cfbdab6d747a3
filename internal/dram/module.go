package dram

import (
	"fmt"
	"sort"

	"ftlhammer/internal/ecc"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// RowPolicy selects the memory controller's row-buffer management policy.
type RowPolicy int

const (
	// OpenRow keeps the last accessed row open; same-row accesses are
	// row hits and do not re-activate. This is the common policy and the
	// reason the attack must alternate between two aggressor rows.
	OpenRow RowPolicy = iota
	// ClosedRow precharges after every access, so every access
	// activates. One-location hammering (Gruss et al., cited in §3.1)
	// becomes possible under this policy.
	ClosedRow
)

func (p RowPolicy) String() string {
	if p == ClosedRow {
		return "closed-row"
	}
	return "open-row"
}

// TRRConfig configures the in-DRAM Target Row Refresh mitigation.
type TRRConfig struct {
	// Enabled turns the mitigation on.
	Enabled bool
	// SamplerSize is how many distinct aggressor candidates the
	// mitigation can track per bank per refresh command interval.
	// Commodity implementations are tiny (1..4), which is what
	// many-sided attacks exploit (TRRespass).
	SamplerSize int
	// CommandsPerWindow is the number of refresh commands per refresh
	// window (JEDEC: 8192 per 64 ms).
	CommandsPerWindow int
}

// DefaultTRR returns a commodity-like TRR configuration.
func DefaultTRR() TRRConfig {
	return TRRConfig{Enabled: true, SamplerSize: 1, CommandsPerWindow: 8192}
}

// RowRangeBoost multiplies the weak-cell density for physical rows in
// [FromRow, ToRow) in every bank. The paper's testbed "placed the table in
// a physical memory region which we have confirmed is vulnerable"; a boost
// models that placement.
type RowRangeBoost struct {
	FromRow, ToRow int
	Mult           float64
}

// Config assembles a DRAM module simulation.
type Config struct {
	// Geometry is the physical organization. Required.
	Geometry Geometry
	// Profile selects the disturbance-error characteristics. Required.
	Profile Profile
	// Mapping configures the controller address mapping.
	Mapping MapperConfig
	// Policy is the row-buffer policy (default OpenRow).
	Policy RowPolicy
	// RefreshWindow is the full-array refresh period (default 64 ms).
	// Halving it is the "increase refresh rate" mitigation of §5.
	RefreshWindow sim.Duration
	// TRR configures target row refresh (§5 mitigation).
	TRR TRRConfig
	// PARA is the probability that an activation refreshes its
	// neighbours (probabilistic adjacent row activation, §5-adjacent
	// mitigation). Zero disables.
	PARA float64
	// ECC enables SEC-DED Hamming(72,64) protection per 64-bit word.
	ECC bool
	// ECCScrub writes corrected words back to the array on read.
	ECCScrub bool
	// Blast2Weight is the fractional disturbance (in 1/16ths of an
	// adjacent activation) exerted on rows at distance two. Non-zero
	// enables half-double style coupling. Typical: 2.
	Blast2Weight uint64
	// Boosts adjusts weak-cell density for row ranges.
	Boosts []RowRangeBoost
	// Timing bounds activation rates physically (zero values disable).
	Timing Timing
	// Seed drives all stochastic choices (weak-cell placement,
	// thresholds, PARA draws). Same seed, same device.
	Seed uint64
}

// Timing models the DRAM command-rate constraints that cap how fast any
// attacker can activate rows, however fast the interface is.
type Timing struct {
	// TRC is the minimum time between two activations of the same bank
	// (row cycle time). Typical DDR3/4: ~45-50 ns.
	TRC sim.Duration
	// TFAW is the rolling four-activation window per rank: no more than
	// four activations of a rank may start within one TFAW. Typical:
	// ~30-40 ns x4.
	TFAW sim.Duration
}

// DefaultTiming returns commodity DDR3/4-class constraints.
func DefaultTiming() Timing {
	return Timing{TRC: 47 * sim.Nanosecond, TFAW: 30 * sim.Nanosecond}
}

// Stats aggregates module activity.
type Stats struct {
	Reads          uint64 // read operations
	Writes         uint64 // write operations
	Activations    uint64 // row activations (row misses)
	RowHits        uint64 // accesses served from an open row
	Flips          uint64 // rowhammer bitflips applied to the array
	FlipAttempts   uint64 // threshold crossings (incl. no-op direction)
	TRRRefreshes   uint64 // neighbour refreshes issued by TRR
	PARARefreshes  uint64 // neighbour refreshes issued by PARA
	ECCCorrected   uint64 // single-bit errors corrected on read
	ECCUncorrected uint64 // double-bit errors detected on read
	TRRDropped     uint64 // aggressors a full TRR sampler failed to track
	PARADraws      uint64 // PARA Bernoulli draws (one per activation)
}

// FlipEvent describes one applied rowhammer bitflip.
type FlipEvent struct {
	Time     sim.Time
	Bank     int    // flat bank index
	Row      int    // physical row index of the victim row
	Bit      uint32 // bit offset within the row
	PhysAddr uint64 // physical address of the affected byte
	ToOne    bool   // flip direction
}

func (e FlipEvent) String() string {
	dir := "1->0"
	if e.ToOne {
		dir = "0->1"
	}
	return fmt.Sprintf("flip@%d bank=%d row=%d bit=%d addr=%#x %s",
		uint64(e.Time), e.Bank, e.Row, e.Bit, e.PhysAddr, dir)
}

// ECCError reports an uncorrectable error surfaced by a read.
type ECCError struct {
	Addr uint64
}

func (e *ECCError) Error() string {
	return fmt.Sprintf("dram: uncorrectable ECC error at %#x", e.Addr)
}

const frameBytes = 4096 // sparse backing store granularity

type frame struct {
	data  []byte
	check []byte // one SEC-DED check byte per 8 data bytes (ECC only)
}

// mapCacheBits sizes the module's direct-mapped Map-result cache
// (1<<mapCacheBits entries). The mapping is a pure function of the
// address, so entries never need invalidation; hammering alternates over a
// small address set (entry, conflict and firmware lines), which 64 slots
// hold without collisions.
const mapCacheBits = 6

// mapCacheEnt memoizes Map and the flat bank index for one line-aligned
// address; line is stored +1 so the zero value is never a hit.
type mapCacheEnt struct {
	line uint64
	bank int
	loc  Location
}

// Module is a simulated DRAM subsystem with a rowhammer fault model.
// It is not safe for concurrent use; the simulation is single-threaded.
// Parallel harnesses build one module per trial, each in its own World.
type Module struct {
	cfg    Config
	world  *sim.World
	clk    *sim.Clock
	mapper *Mapper
	banks  []*bankState
	frames map[uint64]*frame
	rng    *sim.RNG // general online draws (kept for snapshot stability)
	mitRNG *sim.RNG // mitigation draws (PARA); its own stream so
	// enabling or disabling a mitigation never perturbs other
	// stochastic choices, and the stream itself survives
	// Checkpoint/Restore byte-identically
	stats  Stats
	flips  []FlipEvent
	onFlip func(FlipEvent)
	// obs is the world's registry (nil = observability disabled; every
	// use is a nil-safe no-op).
	obs *obs.Registry
	// bankActs counts activations per flat bank (BankActivations, and
	// the per-bank distribution metric).
	bankActs []uint64
	// mapCache memoizes the controller address mapping per line.
	mapCache [1 << mapCacheBits]mapCacheEnt
	// lastLine/lastBank/lastRow memoize the most recently touched line
	// (lastLine stores line+1 so the zero value never hits). A block
	// access walks 64 consecutive lines and a hammer loop re-activates a
	// tiny set, so this one-entry memo resolves most row-buffer hits
	// without remapping. Like mapCache, the line→(bank,row) mapping is
	// pure; the open-row check is always made live, so the memo needs no
	// invalidation.
	lastLine uint64
	lastBank int
	lastRow  int
	// thrFloor is the minimum possible flip threshold under this profile
	// (HCfirst at unit spread); rows disturbed below it cannot flip, so
	// the hot path skips weak-cell sampling and scanning entirely.
	thrFloor uint64
	// neverFlips is set when the configuration cannot produce weak cells
	// at all, reducing disturbance accounting to a no-op.
	neverFlips bool
	// pendingStall accumulates time the DRAM could not keep up with the
	// requested activation rate (tRC/tFAW); the device front end drains
	// it into the clock as back-pressure.
	pendingStall sim.Duration
	// bankBusyUntil is the earliest next activation time per bank.
	bankBusyUntil []sim.Time
	// rankActs holds the last four activation start times per rank
	// (rolling, for tFAW).
	rankActs [][4]sim.Time
	// rankShift turns a flat bank index into its flat rank index (banks
	// per rank is a power of two).
	rankShift uint
}

// New builds a module inside the given world. It panics on invalid
// configuration.
func New(cfg Config, w *sim.World) *Module {
	if err := cfg.Geometry.Validate(); err != nil {
		panic(err)
	}
	if w == nil || w.Clock == nil {
		panic("dram: nil world")
	}
	// The profile's shipped mitigation resolves into the config knobs
	// first; knobs the caller set explicitly always win.
	cfg.Profile.Mitigation.apply(&cfg)
	if cfg.RefreshWindow == 0 {
		cfg.RefreshWindow = 64 * sim.Millisecond
	}
	if cfg.TRR.Enabled {
		if cfg.TRR.SamplerSize <= 0 {
			cfg.TRR.SamplerSize = 1
		}
		if cfg.TRR.CommandsPerWindow <= 0 {
			cfg.TRR.CommandsPerWindow = 8192
		}
	}
	m := &Module{
		cfg:    cfg,
		world:  w,
		clk:    w.Clock,
		mapper: NewMapper(cfg.Geometry, cfg.Mapping),
		banks:  make([]*bankState, cfg.Geometry.TotalBanks()),
		frames: make(map[uint64]*frame),
		rng:    sim.NewRNG(cfg.Seed ^ 0xd1a0_0001),
		mitRNG: sim.NewRNG(cfg.Seed ^ 0xd1a0_0002),
	}
	for i := range m.banks {
		m.banks[i] = newBankState()
	}
	m.bankBusyUntil = make([]sim.Time, cfg.Geometry.TotalBanks())
	m.bankActs = make([]uint64, cfg.Geometry.TotalBanks())
	m.rankActs = make([][4]sim.Time, cfg.Geometry.Channels*cfg.Geometry.DIMMs*cfg.Geometry.Ranks)
	m.rankShift = log2(cfg.Geometry.Banks)
	m.obs = w.Obs
	if m.obs != nil {
		m.registerObs(m.obs)
	}
	m.thrFloor = cfg.Profile.HCfirst * disturbScale
	if cfg.Profile.HCfirst > 1<<58 {
		m.thrFloor = 1 << 62 // match the per-cell threshold clamp
	}
	m.neverFlips = cfg.Profile.WeakCellsPerRow <= 0
	return m
}

// World returns the world the module simulates in.
func (m *Module) World() *sim.World { return m.world }

// TakeStall returns and clears the accumulated command-rate back-pressure.
// Device front ends call this after each operation and charge the result
// to the clock, so sustained activation rates cannot exceed what tRC/tFAW
// physically allow.
func (m *Module) TakeStall() sim.Duration {
	s := m.pendingStall
	m.pendingStall = 0
	return s
}

// recordActivation applies tRC/tFAW accounting for an activation of the
// flat bank at the current virtual time.
func (m *Module) recordActivation(bankIdx int) {
	t := &m.cfg.Timing
	if t.TRC == 0 && t.TFAW == 0 {
		return
	}
	now := m.clk.Now().Add(m.pendingStall)
	start := now
	if t.TRC > 0 && m.bankBusyUntil[bankIdx] > start {
		start = m.bankBusyUntil[bankIdx]
	}
	// ra holds the rank's last four activation starts; ra[oi] is the
	// oldest, which this activation replaces.
	ra := &m.rankActs[bankIdx>>m.rankShift]
	oi := 0
	if t.TFAW > 0 {
		for i := 1; i < len(ra); i++ {
			if ra[i] < ra[oi] {
				oi = i
			}
		}
		// The oldest of the last four activations must be at least
		// TFAW before this one starts. Zero entries mean "no prior
		// activation recorded yet" and impose nothing.
		if oldest := ra[oi]; oldest > 0 {
			if earliest := oldest.Add(t.TFAW); earliest > start {
				start = earliest
			}
		}
	}
	if t.TRC > 0 {
		m.bankBusyUntil[bankIdx] = start.Add(t.TRC)
	}
	if t.TFAW > 0 {
		ra[oi] = start
	}
	if start > now {
		m.pendingStall += start.Sub(now)
	}
}

// Mapper exposes the controller address mapping (the attacker's offline
// knowledge of the device, per the threat model in §3).
func (m *Module) Mapper() *Mapper { return m.mapper }

// Config returns the module configuration.
func (m *Module) Config() Config { return m.cfg }

// Stats returns a copy of the activity counters.
func (m *Module) Stats() Stats { return m.stats }

// Activations returns Stats().Activations without copying the counters.
func (m *Module) Activations() uint64 { return m.stats.Activations }

// Accesses returns the number of line accesses so far: every line touch,
// data reads and writes included, is exactly one activation or one row
// hit.
func (m *Module) Accesses() uint64 { return m.stats.Activations + m.stats.RowHits }

// ResetStats zeroes the counters and the flip log.
func (m *Module) ResetStats() {
	m.stats = Stats{}
	m.flips = m.flips[:0]
}

// Flips returns the applied bitflips, oldest first. The returned slice is
// owned by the module; callers must not modify it.
func (m *Module) Flips() []FlipEvent { return m.flips }

// OnFlip registers a callback invoked synchronously for every applied flip.
// It runs inside the activation that caused the flip, so it must not call
// back into the module.
func (m *Module) OnFlip(fn func(FlipEvent)) { m.onFlip = fn }

// frameFor returns the backing frame containing addr, materializing it.
func (m *Module) frameFor(addr uint64) *frame {
	key := addr / frameBytes
	f, ok := m.frames[key]
	if !ok {
		f = &frame{data: make([]byte, frameBytes)}
		if m.cfg.ECC {
			f.check = make([]byte, frameBytes/8)
		}
		m.frames[key] = f
	}
	return f
}

// Peek reads a byte without any access semantics (no activation, no ECC
// check, no disturbance). It is the simulator's "ground truth" view, for
// debugging and test assertions — device models must use Read.
func (m *Module) Peek(addr uint64) byte {
	f, ok := m.frames[addr/frameBytes]
	if !ok {
		return 0
	}
	return f.data[addr%frameBytes]
}

// Read copies len(buf) bytes starting at addr into buf, performing the
// row-buffer and disturbance bookkeeping for every 64-byte line touched.
// With ECC enabled, single-bit errors are corrected in the returned data
// and an *ECCError is returned for uncorrectable words (buf then holds the
// raw, untrusted bytes).
func (m *Module) Read(addr uint64, buf []byte) error {
	m.stats.Reads++
	return m.access(addr, buf, false)
}

// Write stores buf at addr with the same access bookkeeping as Read and
// updates ECC check bits.
func (m *Module) Write(addr uint64, buf []byte) error {
	m.stats.Writes++
	return m.access(addr, buf, true)
}

// access walks the byte range line by line.
func (m *Module) access(addr uint64, buf []byte, write bool) error {
	if len(buf) == 0 {
		return nil
	}
	end := addr + uint64(len(buf))
	if end > m.cfg.Geometry.Capacity() {
		return fmt.Errorf("dram: access [%#x,%#x) beyond capacity %#x", addr, end, m.cfg.Geometry.Capacity())
	}
	var firstErr error
	off := 0
	// Non-ECC data movement resolves the backing frame once per 4 KiB
	// frame instead of once per 64-byte line: a block-sized access spans
	// 64 lines but at most two frames, so hoisting the map lookup out of
	// the line walk amortizes it across the batch.
	var (
		curKey uint64 = ^uint64(0)
		cur    *frame
	)
	for a := addr; a < end; {
		lineEnd := (a/lineBytes + 1) * lineBytes
		if lineEnd > end {
			lineEnd = end
		}
		n := int(lineEnd - a)
		m.touchLine(a)
		if m.cfg.ECC {
			if err := m.moveBytes(a, buf[off:off+n], write); err != nil && firstErr == nil {
				firstErr = err
			}
		} else {
			// Lines never straddle frames (both are powers of two), so
			// one frame covers the whole [a, lineEnd) span.
			if key := a / frameBytes; key != curKey || cur == nil {
				curKey, cur = key, m.frameFor(a)
			}
			idx := a % frameBytes
			if write {
				copy(cur.data[idx:], buf[off:off+n])
			} else {
				copy(buf[off:off+n], cur.data[idx:int(idx)+n])
			}
		}
		a = lineEnd
		off += n
	}
	return firstErr
}

// Activate performs the row-buffer bookkeeping for the line containing
// addr without transferring data. It models accesses whose data content is
// irrelevant (e.g. firmware scratch traffic) and is also the primitive the
// tests use to drive precise activation patterns.
func (m *Module) Activate(addr uint64) {
	m.touchLine(addr)
}

// mapLine returns the cache entry for the line containing addr, memoizing
// the (pure) controller mapping and flat bank index in a small
// direct-mapped cache. The entry's location is line-aligned: Col holds
// only the column-high bits, which is all the activation/disturbance
// bookkeeping needs. The entry stays valid until the next mapLine call.
func (m *Module) mapLine(addr uint64) *mapCacheEnt {
	line := addr / lineBytes
	e := &m.mapCache[(line*0x9e3779b97f4a7c15)>>(64-mapCacheBits)]
	if e.line != line+1 {
		e.line, e.loc = line+1, m.mapper.Map(line*lineBytes)
		e.bank = m.cfg.Geometry.FlatBank(e.loc)
	}
	return e
}

// touchLine performs activation/disturbance bookkeeping for one line.
func (m *Module) touchLine(addr uint64) {
	line := addr / lineBytes
	if line+1 == m.lastLine && m.cfg.Policy == OpenRow &&
		m.banks[m.lastBank].openRow == m.lastRow {
		// Same line as the previous touch and its row is still open:
		// a row-buffer hit with no remapping needed.
		m.stats.RowHits++
		return
	}
	e := m.mapLine(addr)
	loc, bankIdx := &e.loc, e.bank
	bank := m.banks[bankIdx]
	m.lastLine, m.lastBank, m.lastRow = line+1, bankIdx, loc.Row

	if m.cfg.Policy == OpenRow && bank.openRow == loc.Row {
		m.stats.RowHits++
		return
	}
	// Row miss: precharge + activate.
	bank.openRow = loc.Row
	if m.cfg.Policy == ClosedRow {
		bank.openRow = -1
	}
	m.stats.Activations++
	m.bankActs[bankIdx]++
	m.recordActivation(bankIdx)
	now := m.clk.Now()

	if m.cfg.TRR.Enabled {
		m.trrStep(bank, bankIdx, loc.Row, now)
	}
	if m.cfg.PARA > 0 {
		m.stats.PARADraws++
		if m.mitRNG.Float64() < m.cfg.PARA {
			m.refreshNeighbors(bank, loc.Row)
			m.stats.PARARefreshes++
		}
	}

	// Disturb physical neighbours.
	m.disturb(bank, bankIdx, loc, loc.Row-1, disturbScale, now)
	m.disturb(bank, bankIdx, loc, loc.Row+1, disturbScale, now)
	if w := m.cfg.Blast2Weight; w > 0 {
		m.disturb(bank, bankIdx, loc, loc.Row-2, w, now)
		m.disturb(bank, bankIdx, loc, loc.Row+2, w, now)
	}
}

// disturb applies pressure to one victim row and fires any flips.
func (m *Module) disturb(bank *bankState, bankIdx int, aggLoc *Location, victimRow int, weight uint64, now sim.Time) {
	if m.neverFlips {
		// No configuration of this profile can produce weak cells, so
		// disturbance accounting is unobservable; skip it entirely.
		return
	}
	if victimRow < 0 || victimRow >= m.cfg.Geometry.RowsPerBank {
		return
	}
	rs := bank.row(victimRow, m.cfg.Geometry.RowsPerBank)
	m.ensureEpoch(rs, victimRow, now)
	rs.disturb += weight
	if rs.disturb < m.thrFloor {
		// Below the weakest possible cell's threshold nothing can flip;
		// rows that never accumulate this much pressure never even pay
		// for weak-cell sampling.
		return
	}
	if !rs.sampled {
		m.sampleWeakCells(rs, bankIdx, victimRow)
	}
	if rs.disturb < rs.minThr {
		return
	}
	for i := range rs.weak {
		wc := &rs.weak[i]
		if rs.disturb >= wc.threshold && wc.attemptedGen != rs.gen {
			wc.attemptedGen = rs.gen
			m.stats.FlipAttempts++
			m.applyFlip(bankIdx, aggLoc, victimRow, wc, now)
		}
	}
}

// ensureEpoch resets the row's disturbance if a refresh boundary passed.
// While now stays inside the row's cached epoch span nothing can have
// changed; both ends are checked because Clock.Reset and Clock.Restore
// move time backwards.
func (m *Module) ensureEpoch(rs *rowState, row int, now sim.Time) {
	if now >= rs.epochFrom && now < rs.epochTo {
		return
	}
	ep, from, to := refreshEpoch(now, m.cfg.RefreshWindow, row, m.cfg.Geometry.RowsPerBank)
	rs.epochFrom, rs.epochTo = from, to
	if ep != rs.epoch {
		rs.epoch = ep
		rs.disturb = 0
		rs.gen++
	}
}

// sampleWeakCells lazily materializes the row's susceptible cells,
// deterministically from the module seed and the row's identity.
func (m *Module) sampleWeakCells(rs *rowState, bankIdx, row int) {
	rs.sampled = true
	rs.minThr = ^uint64(0)
	mean := m.cfg.Profile.WeakCellsPerRow
	for _, b := range m.cfg.Boosts {
		if row >= b.FromRow && row < b.ToRow {
			mean *= b.Mult
		}
	}
	if mean <= 0 {
		return
	}
	rng := sim.NewRNG(m.cfg.Seed ^ (uint64(bankIdx)<<40 | uint64(row)<<8 | 0x5eed))
	n := poisson(rng, mean)
	if n == 0 {
		return
	}
	bitsPerRow := uint64(m.cfg.Geometry.RowBytes) * 8
	rs.weak = make([]weakCell, n)
	for i := range rs.weak {
		spread := rng.LogNormalish(m.cfg.Profile.ThresholdSigma)
		if spread < 1 {
			spread = 1
		}
		thr := float64(m.cfg.Profile.HCfirst) * disturbScale * spread
		if thr > 1<<62 {
			thr = 1 << 62
		}
		rs.weak[i] = weakCell{
			bit:          uint32(rng.Uint64n(bitsPerRow)),
			threshold:    uint64(thr),
			leaksToOne:   rng.Bool(),
			attemptedGen: ^uint64(0),
		}
		if rs.weak[i].threshold < rs.minThr {
			rs.minThr = rs.weak[i].threshold
		}
	}
}

// applyFlip mutates the backing store if the cell's stored bit is in the
// leak-prone state.
func (m *Module) applyFlip(bankIdx int, aggLoc *Location, victimRow int, wc *weakCell, now sim.Time) {
	loc := *aggLoc
	loc.Row = victimRow
	loc.Col = int(wc.bit / 8)
	addr := m.mapper.Unmap(loc)
	f := m.frameFor(addr)
	idx := addr % frameBytes
	mask := byte(1 << (wc.bit % 8))
	cur := f.data[idx]&mask != 0
	if cur == wc.leaksToOne {
		return // already at the leak target; nothing to disturb
	}
	if wc.leaksToOne {
		f.data[idx] |= mask
	} else {
		f.data[idx] &^= mask
	}
	m.stats.Flips++
	ev := FlipEvent{
		Time:     now,
		Bank:     bankIdx,
		Row:      victimRow,
		Bit:      wc.bit,
		PhysAddr: addr,
		ToOne:    wc.leaksToOne,
	}
	m.flips = append(m.flips, ev)
	m.obs.Emit(uint64(now), EvFlip, int64(bankIdx), int64(victimRow), int64(wc.bit))
	if m.onFlip != nil {
		m.onFlip(ev)
	}
}

// refreshNeighbors resets the disturbance of both neighbours of row.
func (m *Module) refreshNeighbors(bank *bankState, row int) {
	for _, v := range [2]int{row - 1, row + 1} {
		if v < 0 || v >= m.cfg.Geometry.RowsPerBank {
			continue
		}
		if rs := bank.lookup(v); rs != nil {
			rs.disturb = 0
			rs.gen++
		}
	}
}

// trrStep runs the TRR sampler: at each refresh-command boundary the
// mitigation refreshes the neighbours of its sampled aggressor candidates,
// then resamples. Tiny samplers are what many-sided patterns overflow.
func (m *Module) trrStep(bank *bankState, bankIdx, row int, now sim.Time) {
	tREFI := uint64(m.cfg.RefreshWindow) / uint64(m.cfg.TRR.CommandsPerWindow)
	if tREFI == 0 {
		tREFI = 1
	}
	tick := uint64(now) / tREFI
	if tick != bank.trrTick {
		bank.trrTick = tick
		if len(bank.trrSampler) > 0 {
			// Act on the sampled row(s) in ascending row order (the
			// sampler holds at most SamplerSize entries; sorting keeps
			// the emitted trace deterministic).
			sampled := make([]int, 0, len(bank.trrSampler))
			for r := range bank.trrSampler {
				sampled = append(sampled, r)
			}
			sort.Ints(sampled)
			for _, r := range sampled {
				m.refreshNeighbors(bank, r)
				m.stats.TRRRefreshes++
				m.obs.Emit(uint64(now), EvTRRRefresh,
					int64(bankIdx), int64(r), int64(bank.trrSampler[r]))
			}
			bank.trrSampler = nil
		}
	}
	if bank.trrSampler == nil {
		bank.trrSampler = make(map[int]uint64, m.cfg.TRR.SamplerSize)
	}
	if cnt, ok := bank.trrSampler[row]; ok {
		bank.trrSampler[row] = cnt + 1
	} else if len(bank.trrSampler) < m.cfg.TRR.SamplerSize {
		bank.trrSampler[row] = 1
	} else {
		// A full sampler drops further aggressors: the TRRespass
		// weakness, counted so experiments can see the overflow.
		m.stats.TRRDropped++
	}
}

// moveBytes copies data between buf and the store for a sub-line range,
// applying ECC verification/correction on reads and check-bit updates on
// writes.
func (m *Module) moveBytes(addr uint64, buf []byte, write bool) error {
	if !m.cfg.ECC {
		f := m.frameFor(addr)
		idx := addr % frameBytes
		if write {
			copy(f.data[idx:], buf)
		} else {
			copy(buf, f.data[idx:int(idx)+len(buf)])
		}
		return nil
	}
	if write {
		m.eccWrite(addr, buf)
		return nil
	}
	return m.eccRead(addr, buf)
}

// eccWrite stores bytes and recomputes check bits for every touched word.
func (m *Module) eccWrite(addr uint64, buf []byte) {
	f := m.frameFor(addr)
	idx := int(addr % frameBytes)
	copy(f.data[idx:], buf)
	first := idx / 8
	last := (idx + len(buf) - 1) / 8
	for w := first; w <= last; w++ {
		f.check[w] = ecc.Encode(wordAt(f.data, w))
	}
}

// eccRead verifies every touched word, correcting single-bit errors in the
// returned data (and the array, when scrubbing).
func (m *Module) eccRead(addr uint64, buf []byte) error {
	f := m.frameFor(addr)
	idx := int(addr % frameBytes)
	first := idx / 8
	last := (idx + len(buf) - 1) / 8
	var firstErr error
	for w := first; w <= last; w++ {
		word := wordAt(f.data, w)
		corrected, st := ecc.Decode(word, f.check[w])
		switch st {
		case ecc.Corrected:
			m.stats.ECCCorrected++
			copyWordInto(buf, idx, w, corrected)
			if m.cfg.ECCScrub {
				putWordAt(f.data, w, corrected)
			}
			continue
		case ecc.Uncorrectable:
			m.stats.ECCUncorrected++
			m.obs.Emit(uint64(m.clk.Now()), EvECCUncorrectable, int64(addr&^7+uint64(w-first)*8), 0, 0)
			if firstErr == nil {
				firstErr = &ECCError{Addr: addr&^7 + uint64(w-first)*8}
			}
		}
		copyWordInto(buf, idx, w, word)
	}
	return firstErr
}

// wordAt loads word w (8-byte aligned index) from a frame little-endian.
func wordAt(data []byte, w int) uint64 {
	b := data[w*8 : w*8+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// putWordAt stores word w into the frame little-endian.
func putWordAt(data []byte, w int, v uint64) {
	b := data[w*8 : w*8+8]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// copyWordInto copies the overlap of word w with the caller's buffer,
// where buf[0] corresponds to frame offset bufStart.
func copyWordInto(buf []byte, bufStart, w int, v uint64) {
	wordStart := w * 8
	for i := 0; i < 8; i++ {
		off := wordStart + i - bufStart
		if off < 0 || off >= len(buf) {
			continue
		}
		buf[off] = byte(v >> (8 * i))
	}
}

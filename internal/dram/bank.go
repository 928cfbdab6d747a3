package dram

import (
	"ftlhammer/internal/sim"
)

// disturbScale is the fixed-point scale for disturbance accounting: an
// adjacent-row activation contributes one full unit (16/16); distance-two
// rows can contribute fractional units (half-double style coupling).
const disturbScale = 16

// weakCell is one rowhammer-susceptible cell in a row.
type weakCell struct {
	// bit is the cell's bit offset within the row (0..RowBytes*8).
	bit uint32
	// threshold is the in-window disturbance (scaled by disturbScale)
	// at which the cell flips.
	threshold uint64
	// leaksToOne is true for anti-cells (stored 0 decays to 1); false
	// for true-cells (stored 1 decays to 0).
	leaksToOne bool
	// attemptedGen records the row generation at which a flip was last
	// attempted, so sustained over-threshold hammering does not re-touch
	// the store every access.
	attemptedGen uint64
}

// rowState is the lazily materialized per-row disturbance bookkeeping.
type rowState struct {
	// epoch is the refresh epoch at which disturb was last reset.
	epoch uint64
	// epochFrom and epochTo bound the virtual-time span [from, to) over
	// which the row stays in epoch, so ensureEpoch can skip recomputing
	// it. Derived state: never snapshotted, and the zero span forces a
	// recompute.
	epochFrom, epochTo sim.Time
	// disturb is the accumulated neighbour-activation pressure this
	// epoch, scaled by disturbScale.
	disturb uint64
	// gen increments when the row is refreshed or written, re-arming
	// flip attempts.
	gen uint64
	// weak lists the row's susceptible cells (often empty).
	weak []weakCell
	// minThr is the smallest threshold among weak cells (^0 when the row
	// has none); the disturb hot path skips the cell scan below it.
	minThr uint64
	// sampled records whether weak has been materialized.
	sampled bool
}

// rowChunkBits sizes the second level of the per-bank row table: one
// chunk holds the state pointers of 1<<rowChunkBits consecutive rows.
const (
	rowChunkBits = 6
	rowChunkMask = 1<<rowChunkBits - 1
)

// rowChunk is one second-level block of the row table.
type rowChunk [rowChunkMask + 1]*rowState

// bankState tracks one bank's row buffer and its mitigation state.
type bankState struct {
	// openRow is the row currently held in the row buffer, or -1.
	openRow int
	// chunks is the two-level row table: row r's state lives at
	// chunks[r>>rowChunkBits][r&rowChunkMask]. Both levels are
	// allocated on first use, so a bank nothing disturbs costs nothing.
	chunks []*rowChunk
	// trrSampler holds the rows sampled since the last refresh command,
	// with activation counts (the in-DRAM TRR mitigation's view).
	trrSampler map[int]uint64
	// trrTick is the REF interval index at which TRR last acted.
	trrTick uint64
}

func newBankState() *bankState {
	return &bankState{openRow: -1}
}

// row returns (creating if needed) the state for physical row r of a bank
// with rowsPerBank rows.
func (b *bankState) row(r, rowsPerBank int) *rowState {
	if b.chunks == nil {
		b.chunks = make([]*rowChunk, (rowsPerBank+rowChunkMask)>>rowChunkBits)
	}
	c := b.chunks[r>>rowChunkBits]
	if c == nil {
		c = new(rowChunk)
		b.chunks[r>>rowChunkBits] = c
	}
	rs := c[r&rowChunkMask]
	if rs == nil {
		rs = &rowState{}
		c[r&rowChunkMask] = rs
	}
	return rs
}

// lookup returns row r's state, or nil if it was never materialized.
func (b *bankState) lookup(r int) *rowState {
	if r>>rowChunkBits >= len(b.chunks) {
		return nil
	}
	if c := b.chunks[r>>rowChunkBits]; c != nil {
		return c[r&rowChunkMask]
	}
	return nil
}

// refreshEpoch computes the refresh epoch of a row at time now, and the
// span [from, to) of times that share it. Rows are refreshed in a
// staggered sweep: each row has a fixed phase within the refresh window.
func refreshEpoch(now sim.Time, window sim.Duration, row, rowsPerBank int) (ep uint64, from, to sim.Time) {
	w := uint64(window)
	phase := w * uint64(row) / uint64(rowsPerBank)
	ep = (uint64(now) + phase) / w
	// Epoch ep holds while now+phase is in [ep*w, (ep+1)*w); phase < w,
	// so only epoch 0 starts before time zero.
	if start := ep * w; start > phase {
		from = sim.Time(start - phase)
	}
	return ep, from, sim.Time((ep+1)*w - phase)
}

// poisson draws a Poisson-distributed count with the given mean; the means
// used here are small (weak cells per row), so inversion by sequential
// search is exact and fast.
func poisson(rng *sim.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Knuth's algorithm: multiply uniforms until the product drops below
	// e^-mean.
	l := expNeg(mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 64 { // mean is small; cap defensively
			return k
		}
	}
}

// expNeg computes e^-x for x >= 0 with a range-reduced series; accuracy
// requirements here are modest and the result is deterministic everywhere.
func expNeg(x float64) float64 {
	// e^-x = 1/e^x with e^x via the standard library would be fine; use a
	// simple range-reduced series for determinism across platforms.
	if x > 50 {
		return 0
	}
	// Range-reduce: e^-x = (e^-x/2^k)^(2^k)
	k := 0
	for x > 0.5 {
		x /= 2
		k++
	}
	// Taylor series for e^-x, |x| <= 0.5: converges quickly.
	term := 1.0
	sum := 1.0
	for i := 1; i < 12; i++ {
		term *= -x / float64(i)
		sum += term
	}
	for ; k > 0; k-- {
		sum *= sum
	}
	return sum
}

package dram

import (
	"io"
	"sort"

	"ftlhammer/internal/sim"
	"ftlhammer/internal/snapshot"
)

// snapSection is the snapshot section owned by the DRAM module.
const snapSection = "dram"

// SaveTo appends the module's full mutable state — charge/weak-cell rows,
// row buffers, mitigation samplers, ECC frames, stats, applied flips, the
// online RNG — to a snapshot under construction. Pure derivations
// (mapping cache, threshold floor) are recomputed on load, not stored.
// Maps are flattened in sorted key order so identical state always
// serializes to identical bytes.
func (m *Module) SaveTo(w *snapshot.Writer) {
	s := w.Section(snapSection)
	st := m.stats
	s.U64s("stats", []uint64{
		st.Reads, st.Writes, st.Activations, st.RowHits, st.Flips,
		st.FlipAttempts, st.TRRRefreshes, st.PARARefreshes,
		st.ECCCorrected, st.ECCUncorrected, st.TRRDropped, st.PARADraws,
	})
	s.U64("pending_stall", uint64(m.pendingStall))
	rs := m.rng.State()
	s.U64s("rng", rs[:])
	ms := m.mitRNG.State()
	s.U64s("mit_rng", ms[:])
	s.U64s("bank_acts", m.bankActs)
	busy := make([]uint64, len(m.bankBusyUntil))
	for i, t := range m.bankBusyUntil {
		busy[i] = uint64(t)
	}
	s.U64s("bank_busy", busy)
	ranks := make([]uint64, 0, len(m.rankActs)*4)
	for i := range m.rankActs {
		for _, t := range m.rankActs[i] {
			ranks = append(ranks, uint64(t))
		}
	}
	s.U64s("rank_acts", ranks)

	// Applied flips, column per attribute.
	fT := make([]uint64, len(m.flips))
	fBank := make([]uint64, len(m.flips))
	fRow := make([]uint64, len(m.flips))
	fBit := make([]uint32, len(m.flips))
	fAddr := make([]uint64, len(m.flips))
	fDir := make([]byte, len(m.flips))
	for i, fe := range m.flips {
		fT[i] = uint64(fe.Time)
		fBank[i] = uint64(fe.Bank)
		fRow[i] = uint64(fe.Row)
		fBit[i] = fe.Bit
		fAddr[i] = fe.PhysAddr
		if fe.ToOne {
			fDir[i] = 1
		}
	}
	s.U64s("flip_time", fT)
	s.U64s("flip_bank", fBank)
	s.U64s("flip_row", fRow)
	s.U32s("flip_bit", fBit)
	s.U64s("flip_addr", fAddr)
	s.Bytes("flip_toone", fDir)

	// Sparse backing frames, sorted by frame key.
	keys := make([]uint64, 0, len(m.frames))
	for k := range m.frames {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	data := make([]byte, 0, len(keys)*frameBytes)
	var check []byte
	for _, k := range keys {
		f := m.frames[k]
		data = append(data, f.data...)
		check = append(check, f.check...)
	}
	s.U64s("frame_keys", keys)
	s.Bytes("frame_data", data)
	s.Bytes("frame_check", check)

	// Per-bank row-buffer and TRR state.
	open := make([]uint64, len(m.banks))
	trrTick := make([]uint64, len(m.banks))
	var trrBank, trrRow, trrCnt []uint64
	var rowBank, rowIdx, rowEpoch, rowDisturb, rowGen, rowMinThr, rowWeakN []uint64
	var rowSampled []byte
	var weakBit []uint32
	var weakThr, weakGen []uint64
	var weakLeak []byte
	for bi, b := range m.banks {
		open[bi] = uint64(int64(b.openRow))
		trrTick[bi] = b.trrTick
		trSorted := make([]int, 0, len(b.trrSampler))
		for r := range b.trrSampler {
			trSorted = append(trSorted, r)
		}
		sort.Ints(trSorted)
		for _, r := range trSorted {
			trrBank = append(trrBank, uint64(bi))
			trrRow = append(trrRow, uint64(r))
			trrCnt = append(trrCnt, b.trrSampler[r])
		}
		// The row table iterates in ascending row order.
		for ci, c := range b.chunks {
			if c == nil {
				continue
			}
			for j, rst := range c {
				if rst == nil {
					continue
				}
				rowBank = append(rowBank, uint64(bi))
				rowIdx = append(rowIdx, uint64(ci<<rowChunkBits|j))
				rowEpoch = append(rowEpoch, rst.epoch)
				rowDisturb = append(rowDisturb, rst.disturb)
				rowGen = append(rowGen, rst.gen)
				rowMinThr = append(rowMinThr, rst.minThr)
				rowWeakN = append(rowWeakN, uint64(len(rst.weak)))
				sampled := byte(0)
				if rst.sampled {
					sampled = 1
				}
				rowSampled = append(rowSampled, sampled)
				for _, wc := range rst.weak {
					weakBit = append(weakBit, wc.bit)
					weakThr = append(weakThr, wc.threshold)
					weakGen = append(weakGen, wc.attemptedGen)
					leak := byte(0)
					if wc.leaksToOne {
						leak = 1
					}
					weakLeak = append(weakLeak, leak)
				}
			}
		}
	}
	s.U64s("open_row", open)
	s.U64s("trr_tick", trrTick)
	s.U64s("trr_bank", trrBank)
	s.U64s("trr_row", trrRow)
	s.U64s("trr_cnt", trrCnt)
	s.U64s("row_bank", rowBank)
	s.U64s("row_idx", rowIdx)
	s.U64s("row_epoch", rowEpoch)
	s.U64s("row_disturb", rowDisturb)
	s.U64s("row_gen", rowGen)
	s.U64s("row_minthr", rowMinThr)
	s.Bytes("row_sampled", rowSampled)
	s.U64s("row_weak_n", rowWeakN)
	s.U32s("weak_bit", weakBit)
	s.U64s("weak_thr", weakThr)
	s.U64s("weak_gen", weakGen)
	s.Bytes("weak_leak", weakLeak)
}

// LoadFrom restores the module from its section of a decoded snapshot,
// replacing all mutable state. Every index and length is validated
// against the module's configuration before use; on error the module may
// be partially overwritten and must be discarded.
func (m *Module) LoadFrom(snap *snapshot.Snapshot) error {
	s := snap.Section(snapSection)
	nBanks := m.cfg.Geometry.TotalBanks()

	stats := s.U64s("stats")
	// 10 counters = pre-mitigation-zoo snapshots (the two new counters
	// restore as zero); 12 = current layout.
	if len(stats) != 10 && len(stats) != 12 && s.Err() == nil {
		s.Reject("stats", "want 10 or 12 counters, got %d", len(stats))
	}
	rngState := s.U64s("rng")
	if len(rngState) != 4 && s.Err() == nil {
		s.Reject("rng", "want 4 state words, got %d", len(rngState))
	}
	var mitState []uint64
	if s.Has("mit_rng") {
		mitState = s.U64s("mit_rng")
		if len(mitState) != 4 && s.Err() == nil {
			s.Reject("mit_rng", "want 4 state words, got %d", len(mitState))
		}
	}
	bankActs := s.U64s("bank_acts")
	busy := s.U64s("bank_busy")
	ranks := s.U64s("rank_acts")
	nRanks := m.cfg.Geometry.Channels * m.cfg.Geometry.DIMMs * m.cfg.Geometry.Ranks
	if s.Err() == nil {
		switch {
		case len(bankActs) != nBanks:
			s.Reject("bank_acts", "want %d banks, got %d", nBanks, len(bankActs))
		case len(busy) != nBanks:
			s.Reject("bank_busy", "want %d banks, got %d", nBanks, len(busy))
		case len(ranks) != nRanks*4:
			s.Reject("rank_acts", "want %d entries, got %d", nRanks*4, len(ranks))
		}
	}

	fT := s.U64s("flip_time")
	fBank := s.U64s("flip_bank")
	fRow := s.U64s("flip_row")
	fBit := s.U32s("flip_bit")
	fAddr := s.U64s("flip_addr")
	fDir := s.Bytes("flip_toone")
	if s.Err() == nil {
		n := len(fT)
		if len(fBank) != n || len(fRow) != n || len(fBit) != n || len(fAddr) != n || len(fDir) != n {
			s.Reject("flip_time", "flip column lengths disagree")
		}
	}

	keys := s.U64s("frame_keys")
	frameData := s.Bytes("frame_data")
	frameCheck := s.Bytes("frame_check")
	maxFrames := m.cfg.Geometry.Capacity() / frameBytes
	checkPer := 0
	if m.cfg.ECC {
		checkPer = frameBytes / 8
	}
	if s.Err() == nil {
		switch {
		case len(frameData) != len(keys)*frameBytes:
			s.Reject("frame_data", "want %d bytes for %d frames, got %d",
				len(keys)*frameBytes, len(keys), len(frameData))
		case len(frameCheck) != len(keys)*checkPer:
			s.Reject("frame_check", "want %d bytes, got %d", len(keys)*checkPer, len(frameCheck))
		default:
			for _, k := range keys {
				if k >= maxFrames {
					s.Reject("frame_keys", "frame %d beyond capacity (%d frames)", k, maxFrames)
					break
				}
			}
		}
	}

	open := s.U64s("open_row")
	trrTick := s.U64s("trr_tick")
	trrBank := s.U64s("trr_bank")
	trrRow := s.U64s("trr_row")
	trrCnt := s.U64s("trr_cnt")
	rowBank := s.U64s("row_bank")
	rowIdx := s.U64s("row_idx")
	rowEpoch := s.U64s("row_epoch")
	rowDisturb := s.U64s("row_disturb")
	rowGen := s.U64s("row_gen")
	rowMinThr := s.U64s("row_minthr")
	rowSampled := s.Bytes("row_sampled")
	rowWeakN := s.U64s("row_weak_n")
	weakBit := s.U32s("weak_bit")
	weakThr := s.U64s("weak_thr")
	weakGen := s.U64s("weak_gen")
	weakLeak := s.Bytes("weak_leak")
	if s.Err() == nil {
		switch {
		case len(open) != nBanks || len(trrTick) != nBanks:
			s.Reject("open_row", "want %d banks, got %d/%d", nBanks, len(open), len(trrTick))
		case len(trrBank) != len(trrRow) || len(trrBank) != len(trrCnt):
			s.Reject("trr_bank", "TRR column lengths disagree")
		case len(rowBank) != len(rowIdx) || len(rowBank) != len(rowEpoch) ||
			len(rowBank) != len(rowDisturb) || len(rowBank) != len(rowGen) ||
			len(rowBank) != len(rowMinThr) || len(rowBank) != len(rowSampled) ||
			len(rowBank) != len(rowWeakN):
			s.Reject("row_bank", "row column lengths disagree")
		case len(weakBit) != len(weakThr) || len(weakBit) != len(weakGen) ||
			len(weakBit) != len(weakLeak):
			s.Reject("weak_bit", "weak-cell column lengths disagree")
		}
	}
	if s.Err() == nil {
		total := uint64(0)
		for _, n := range rowWeakN {
			total += n
		}
		if total != uint64(len(weakBit)) {
			s.Reject("row_weak_n", "weak counts sum to %d but %d cells present", total, len(weakBit))
		}
	}
	if s.Err() == nil {
		rows := uint64(m.cfg.Geometry.RowsPerBank)
		for i := range rowBank {
			if rowBank[i] >= uint64(nBanks) || rowIdx[i] >= rows {
				s.Reject("row_bank", "row %d of bank %d out of range", rowIdx[i], rowBank[i])
				break
			}
		}
		for i := range trrBank {
			if trrBank[i] >= uint64(nBanks) || trrRow[i] >= rows {
				s.Reject("trr_bank", "sampled row %d of bank %d out of range", trrRow[i], trrBank[i])
				break
			}
		}
	}
	if err := s.Err(); err != nil {
		return err
	}

	m.stats = Stats{
		Reads: stats[0], Writes: stats[1], Activations: stats[2],
		RowHits: stats[3], Flips: stats[4], FlipAttempts: stats[5],
		TRRRefreshes: stats[6], PARARefreshes: stats[7],
		ECCCorrected: stats[8], ECCUncorrected: stats[9],
	}
	if len(stats) == 12 {
		m.stats.TRRDropped, m.stats.PARADraws = stats[10], stats[11]
	}
	m.pendingStall = sim.Duration(s.U64("pending_stall"))
	m.rng.SetState([4]uint64{rngState[0], rngState[1], rngState[2], rngState[3]})
	if mitState != nil {
		m.mitRNG.SetState([4]uint64{mitState[0], mitState[1], mitState[2], mitState[3]})
	}
	copy(m.bankActs, bankActs)
	for i, v := range busy {
		m.bankBusyUntil[i] = sim.Time(v)
	}
	for i := range m.rankActs {
		for j := 0; j < 4; j++ {
			m.rankActs[i][j] = sim.Time(ranks[i*4+j])
		}
	}

	m.flips = m.flips[:0]
	for i := range fT {
		m.flips = append(m.flips, FlipEvent{
			Time:     sim.Time(fT[i]),
			Bank:     int(fBank[i]),
			Row:      int(fRow[i]),
			Bit:      fBit[i],
			PhysAddr: fAddr[i],
			ToOne:    fDir[i] == 1,
		})
	}

	m.frames = make(map[uint64]*frame, len(keys))
	for i, k := range keys {
		f := &frame{data: append([]byte(nil), frameData[i*frameBytes:(i+1)*frameBytes]...)}
		if checkPer > 0 {
			f.check = append([]byte(nil), frameCheck[i*checkPer:(i+1)*checkPer]...)
		}
		m.frames[k] = f
	}

	// Rebuild every bank from scratch, row table included.
	wi := 0
	for bi := range m.banks {
		b := newBankState()
		b.openRow = int(int64(open[bi]))
		b.trrTick = trrTick[bi]
		m.banks[bi] = b
	}
	for i := range trrBank {
		b := m.banks[trrBank[i]]
		if b.trrSampler == nil {
			b.trrSampler = make(map[int]uint64)
		}
		b.trrSampler[int(trrRow[i])] = trrCnt[i]
	}
	for i := range rowBank {
		rst := m.banks[rowBank[i]].row(int(rowIdx[i]), m.cfg.Geometry.RowsPerBank)
		*rst = rowState{
			epoch:   rowEpoch[i],
			disturb: rowDisturb[i],
			gen:     rowGen[i],
			minThr:  rowMinThr[i],
			sampled: rowSampled[i] == 1,
		}
		n := int(rowWeakN[i])
		for j := 0; j < n; j++ {
			rst.weak = append(rst.weak, weakCell{
				bit:          weakBit[wi],
				threshold:    weakThr[wi],
				leaksToOne:   weakLeak[wi] == 1,
				attemptedGen: weakGen[wi],
			})
			wi++
		}
	}
	// mapCache entries are pure functions of the address; they stay valid
	// across a restore and need no invalidation.
	return nil
}

// Save writes a standalone snapshot containing only the DRAM section.
// Checkpoint composition (nvme.Device.Checkpoint) uses SaveTo instead.
func (m *Module) Save(w io.Writer) error {
	sw := snapshot.NewWriter()
	m.SaveTo(sw)
	_, err := sw.WriteTo(w)
	return err
}

// Load restores the module from a standalone snapshot written by Save.
func (m *Module) Load(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		return err
	}
	return m.LoadFrom(snap)
}

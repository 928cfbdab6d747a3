package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// The layer ladder replays a serving workload's command stream — the
// first ladderBatches batches of every session, a pure function of the
// seed — one layer lower at a time, each rung on a freshly built and
// identically prepared stack, and times every public call from outside:
//
//	fleet.ring      Client.Ring through the fleet frontend (mixed)
//	transport.ring  Client.Ring straight to the device's server
//	nvme.DoBatch    Device.DoBatch in-process, one thread, fixed order
//	ftl.*           FTL.ReadLBA / WriteLBA / Trim
//	dram.l2p        the FTL's L2P access pattern on dram.Module
//	nand.ops        the FTL's page reads/programs/erases on a nand.Array
//
// A layer's self time is its rung's time per command minus the rung
// below; the part of the end-to-end time no rung explains is the
// remainder. Each rung collects garbage after building its stack, so no
// collection of the build's or an earlier rung's garbage runs inside
// the timed replay.

// rungTime returns the mean time per command of the spans named names:
// their summed self time, less one clock read per span, over cmds.
func rungTime(rec *spanRecorder, clk time.Duration, cmds int64, names ...string) float64 {
	if cmds == 0 {
		return 0
	}
	self, count := rec.selfTime()
	var total time.Duration
	for _, n := range names {
		total += self[n] - time.Duration(count[n])*clk
	}
	return float64(total) / float64(cmds)
}

// nandOps is the flash work one host command caused in the ftl rung.
type nandOps struct {
	readPPN  nand.PPN // the mapped page a host read touched (InvalidPPN: none)
	gcReads  uint64
	programs uint64
}

// runLadder runs the traced live phases on st, then the ladder rungs,
// and fills m with the per-layer metrics.
func runLadder(ctx context.Context, cfg config, st *stack, warm time.Duration, m measurement) (measurement, error) {
	rec := newSpanRecorder()
	clk := clockCost()
	sc := cfg.scale
	half := cfg.seconds / 2
	un := st.drive(ctx, warm, 1, half, 0, nil, "")
	tr := st.drive(ctx, 0, 1, half, 0, rec, "live.ring")
	if err := st.close(); err != nil {
		return m, err
	}
	problem := un.problem
	if problem == "" {
		problem = tr.problem
	}
	m.tally(un.attempted+tr.attempted, un.failed+tr.failed, problem)
	e2e := float64(un.meanRTTPerCmd(sc.batch))
	cmds := int64(sc.ladderBatches * len(st.sessions) * sc.batch)

	// fleet rung: through the frontend (mixed only).
	var tFleet float64
	if st.fl != nil {
		fe, err := buildStack(ctx, cfg.workload, sc, cfg.seed, false, nil)
		if err != nil {
			return m, err
		}
		runtime.GC()
		ls := fe.drive(ctx, 0, 0, 0, sc.ladderBatches, rec, "fleet.ring")
		if err := fe.close(); err != nil {
			return m, err
		}
		m.tally(ls.attempted, ls.failed, ls.problem)
		tFleet = rungTime(rec, clk, cmds, "fleet.ring")
		m.values["fleet.refused"] = float64(fe.fl.Stats().Refused)
	}

	// transport rung: straight to the device servers.
	dr, err := buildStack(ctx, cfg.workload, sc, cfg.seed, true, obs.NewRegistry())
	if err != nil {
		return m, err
	}
	runtime.GC()
	ls := dr.drive(ctx, 0, 0, 0, sc.ladderBatches, rec, "transport.ring")
	if err := dr.close(); err != nil {
		return m, err
	}
	m.tally(ls.attempted, ls.failed, ls.problem)
	tRTT := rungTime(rec, clk, cmds, "transport.ring")
	bytes, stalls := dr.wireStats()

	nv, err := nvmeRung(cfg, rec, &m)
	if err != nil {
		return m, err
	}
	tNVMe := rungTime(rec, clk, cmds, "nvme.DoBatch")

	ops, err := ftlRung(cfg, rec, &m)
	if err != nil {
		return m, err
	}
	tFTL := rungTime(rec, clk, cmds, "ftl.ReadLBA", "ftl.WriteLBA", "ftl.Trim")

	dramAcc, dramActs, err := dramRung(cfg, rec)
	if err != nil {
		return m, err
	}
	tDRAM := rungTime(rec, clk, cmds, "dram.l2p")

	nandN, err := nandRung(cfg, rec, ops)
	if err != nil {
		return m, err
	}
	tNAND := rungTime(rec, clk, cmds, "nand.ops")

	v := m.values
	per := func(x uint64) float64 { return float64(x) / float64(cmds) }
	v["transport.rtt_ns_per_cmd"] = tRTT
	v["transport.self_ns_per_cmd"] = tRTT - tNVMe
	v["transport.bytes_per_cmd"] = per(bytes)
	v["transport.window_stalls"] = float64(stalls)
	if st.fl != nil {
		v["fleet.splice_ns_per_cmd"] = tFleet - tRTT
	}
	v["nvme.ns_per_cmd"] = tNVMe
	v["nvme.self_ns_per_cmd"] = tNVMe - tFTL
	v["nvme.sim_us_per_cmd"] = nv.sim.Seconds() * 1e6 / float64(cmds)
	v["ftl.ns_per_op"] = tFTL
	v["ftl.self_ns_per_op"] = tFTL - tDRAM - tNAND
	v["ftl.l2p_lookups_per_cmd"] = per(nv.ftl.L2PLookups)
	if nv.ftl.HostWrites > 0 {
		v["ftl.write_amp"] = float64(nv.ftl.FlashPrograms) / float64(nv.ftl.HostWrites)
	}
	v["ftl.gc_runs"] = float64(nv.ftl.GCRuns)
	v["ftl.gc_pages_moved"] = float64(nv.ftl.GCPagesMoved)
	dramTotal := tDRAM * float64(cmds)
	if dramAcc > 0 {
		v["dram.ns_per_access"] = dramTotal / float64(dramAcc)
	}
	if dramActs > 0 {
		v["dram.ns_per_activation"] = dramTotal / float64(dramActs)
	}
	v["dram.acts_per_cmd"] = per(nv.dram.Activations)
	if acc := nv.dram.Activations + nv.dram.RowHits; acc > 0 {
		v["dram.row_hit_ratio"] = float64(nv.dram.RowHits) / float64(acc)
	}
	v["dram.flips"] = float64(nv.dram.Flips)
	if nandN > 0 {
		v["nand.ns_per_op"] = tNAND * float64(cmds) / float64(nandN)
	}
	reads := nv.ftl.HostReads - nv.ftl.ReadsUnmapped + nv.ftl.GCPagesMoved
	lat := nand.DefaultLatency()
	v["nand.reads_per_cmd"] = per(reads)
	v["nand.programs_per_cmd"] = per(nv.ftl.FlashPrograms)
	v["nand.erases_per_cmd"] = per(nv.ftl.GCRuns)
	busy := time.Duration(reads)*time.Duration(lat.Read) + time.Duration(nv.ftl.FlashPrograms)*time.Duration(lat.Program) +
		time.Duration(nv.ftl.GCRuns)*time.Duration(lat.Erase)
	v["nand.busy_us_per_cmd"] = float64(busy) / float64(time.Microsecond) / float64(cmds)
	top := tRTT
	if st.fl != nil {
		top = tFleet
	}
	v["remainder_ns_per_cmd"] = e2e - top
	v["trace.iops_untraced"] = un.iops()
	v["trace.iops_traced"] = tr.iops()
	if un.iops() > 0 {
		v["trace.overhead_frac"] = (un.iops() - tr.iops()) / un.iops()
	}
	v["trace.clock_ns"] = float64(clk)

	w := cfg.out
	fmt.Fprintf(w, "ladder: %d batches × %d sessions × %d commands = %d commands per rung; clock read %.1f ns subtracted per span\n",
		sc.ladderBatches, len(st.sessions), sc.batch, cmds, float64(clk))
	if cfg.workload == "hammer" && nv.dram.Activations+nv.dram.RowHits != dramAcc {
		fmt.Fprintf(w, "WARNING: dram rung made %d line accesses, nvme rung %d; the dram rung no longer mirrors the FTL\n",
			dramAcc, nv.dram.Activations+nv.dram.RowHits)
	}
	printDecomposition(w, cfg.workload, st.fl != nil, e2e, tFleet, tRTT, tNVMe, tFTL, tDRAM, tNAND, sc.batch)
	fmt.Fprintf(w, "tracing overhead: %.0f IOPS untraced, %.0f IOPS traced (%.2f%% lower)\n",
		un.iops(), tr.iops(), 100*v["trace.overhead_frac"])
	header, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "go": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "git": gitSHA(),
		"stack": st.describe(), "clock_ns": float64(clk),
	})
	if err := rec.write(cfg.spans, string(header)); err != nil {
		return m, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans: %d written to %s\n", len(rec.sp), cfg.spans)
	return m, nil
}

// printDecomposition writes the per-layer table: each layer's self time
// next to the end-to-end time per command, with the remainder as its own
// row.
func printDecomposition(w io.Writer, workload string, fleetHop bool, e2e, tFleet, tRTT, tNVMe, tFTL, tDRAM, tNAND float64, batch int) {
	fmt.Fprintf(w, "layer decomposition, %s (host ns per command):\n", workload)
	row := func(name string, v float64) {
		fmt.Fprintf(w, "  %-22s %10.1f %6.1f%%\n", name, v, 100*v/e2e)
	}
	top := tRTT
	if fleetHop {
		row("fleet splice", tFleet-tRTT)
		top = tFleet
	} else {
		fmt.Fprintf(w, "  %-22s %10s\n", "fleet splice", "n/a")
	}
	row("transport self", tRTT-tNVMe)
	row("nvme self", tNVMe-tFTL)
	row("ftl self", tFTL-tDRAM-tNAND)
	row("dram (L2P accesses)", tDRAM)
	row("nand", tNAND)
	row("remainder", e2e-top)
	fmt.Fprintf(w, "  %-22s %10.1f (untraced live phase: mean batch round trip / %d)\n", "end-to-end", e2e, batch)
}

// nvmeCounts is what the nvme rung's devices counted, summed over
// devices.
type nvmeCounts struct {
	dram dram.Stats
	ftl  ftl.Stats
	sim  time.Duration
}

// forEachBatch replays the ladder stream in its fixed order: batch 0 of
// every session in session order, then batch 1, and so on.
func forEachBatch(d *devices, batches int, fn func(s *session, ns *nvme.Namespace, cmds []nvme.Command, req int64) error) error {
	nss := make([]*nvme.Namespace, len(d.sessions))
	for i, s := range d.sessions {
		ns, err := d.namespace(s)
		if err != nil {
			return err
		}
		nss[i] = ns
	}
	for b := 0; b < batches; b++ {
		for i, s := range d.sessions {
			if err := fn(s, nss[i], s.next(), int64(s.idx)<<32|int64(b)); err != nil {
				return err
			}
		}
	}
	return nil
}

// nvmeRung replays the stream through Device.DoBatch on one thread.
func nvmeRung(cfg config, rec *spanRecorder, m *measurement) (nvmeCounts, error) {
	var out nvmeCounts
	d, err := buildDevices(cfg.workload, cfg.scale, cfg.seed, nil)
	if err != nil {
		return out, err
	}
	runtime.GC()
	type snap struct {
		dram dram.Stats
		ftl  ftl.Stats
		now  time.Duration
	}
	take := func() []snap {
		var ss []snap
		for _, dev := range d.devs {
			ss = append(ss, snap{dev.DRAM().Stats(), dev.FTL().Stats(), time.Duration(dev.Clock().Now())})
		}
		return ss
	}
	before := take()
	var comps []nvme.Completion
	ctx := context.Background()
	err = forEachBatch(d, cfg.scale.ladderBatches, func(s *session, ns *nvme.Namespace, cmds []nvme.Command, req int64) error {
		for i := range cmds {
			cmds[i].NS = ns
		}
		dev := d.devs[s.dev]
		t0 := rec.now()
		comps = dev.DoBatch(ctx, cmds, comps[:0])
		rec.add("nvme.DoBatch", t0, rec.now(), -1, req)
		m.attempted += int64(len(cmds))
		for i, c := range comps {
			if why := s.check(i, c.Mapped, c.Err); why != "" {
				m.fail(1, why)
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	for i, a := range take() {
		b := before[i]
		out.sim += a.now - b.now
		out.dram.Activations += a.dram.Activations - b.dram.Activations
		out.dram.RowHits += a.dram.RowHits - b.dram.RowHits
		out.dram.Flips += a.dram.Flips - b.dram.Flips
		out.ftl.L2PLookups += a.ftl.L2PLookups - b.ftl.L2PLookups
		out.ftl.HostReads += a.ftl.HostReads - b.ftl.HostReads
		out.ftl.ReadsUnmapped += a.ftl.ReadsUnmapped - b.ftl.ReadsUnmapped
		out.ftl.HostWrites += a.ftl.HostWrites - b.ftl.HostWrites
		out.ftl.FlashPrograms += a.ftl.FlashPrograms - b.ftl.FlashPrograms
		out.ftl.GCRuns += a.ftl.GCRuns - b.ftl.GCRuns
		out.ftl.GCPagesMoved += a.ftl.GCPagesMoved - b.ftl.GCPagesMoved
	}
	return out, nil
}

// ftlRung replays the stream as direct FTL calls, one span per call, and
// returns the flash work each command caused (for the nand rung).
func ftlRung(cfg config, rec *spanRecorder, m *measurement) ([]nandOps, error) {
	d, err := buildDevices(cfg.workload, cfg.scale, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ops []nandOps
	err = forEachBatch(d, cfg.scale.ladderBatches, func(s *session, ns *nvme.Namespace, cmds []nvme.Command, req int64) error {
		f := d.devs[s.dev].FTL()
		parent := rec.open("ftl.batch", -1, req)
		for i, c := range cmds {
			g := ns.StartLBA + c.LBA
			st0 := f.Stats()
			op := nandOps{readPPN: nand.InvalidPPN}
			var (
				mapped bool
				err    error
				name   string
			)
			t0 := rec.now()
			switch c.Op {
			case nvme.OpRead:
				mapped, err = f.ReadLBA(g, c.Buf)
				name = "ftl.ReadLBA"
			case nvme.OpWrite:
				err = f.WriteLBA(g, c.Buf)
				name = "ftl.WriteLBA"
			default:
				err = f.Trim(g)
				name = "ftl.Trim"
			}
			rec.add(name, t0, rec.now(), parent, req)
			st1 := f.Stats()
			if mapped {
				op.readPPN = f.PPNOf(g)
			}
			op.gcReads = st1.GCPagesMoved - st0.GCPagesMoved
			op.programs = st1.FlashPrograms - st0.FlashPrograms
			ops = append(ops, op)
			m.attempted++
			if why := s.check(i, mapped, err); why != "" {
				m.fail(1, why)
			}
		}
		rec.close(parent)
		return nil
	})
	return ops, err
}

// dramRung replays the L2P access pattern the FTL makes for every
// command — the entry read, the amplifying conflict/entry activation
// pairs and the firmware scratch touch, plus the entry store for writes
// and trims — on a prepared device's dram.Module. It returns the line
// accesses and activations the rung caused.
func dramRung(cfg config, rec *spanRecorder) (accesses, acts uint64, err error) {
	d, err := buildDevices(cfg.workload, cfg.scale, cfg.seed, nil)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	before := make([]dram.Stats, len(d.devs))
	for i, dev := range d.devs {
		before[i] = dev.DRAM().Stats()
	}
	var raw [ftl.EntryBytes]byte
	err = forEachBatch(d, cfg.scale.ladderBatches, func(s *session, ns *nvme.Namespace, cmds []nvme.Command, req int64) error {
		dev := d.devs[s.dev]
		mem, f := dev.DRAM(), dev.FTL()
		fc := f.Config()
		for _, c := range cmds {
			g := ns.StartLBA + c.LBA
			addr, err := f.EntryAddr(g)
			if err != nil {
				return err
			}
			conflict := conflictAddr(mem, addr)
			touch := func() {
				for i := 0; i < fc.FirmwareTouchesPerIO; i++ {
					mem.Activate(fc.FirmwareBase + (uint64(g)+uint64(i))%64*64)
				}
			}
			t0 := rec.now()
			if err := mem.Read(addr, raw[:]); err != nil {
				return err
			}
			for i := 1; i < fc.HammersPerIO; i++ {
				mem.Activate(conflict)
				mem.Activate(addr)
			}
			touch()
			if c.Op != nvme.OpRead {
				if err := mem.Write(addr, raw[:]); err != nil {
					return err
				}
				touch()
			}
			rec.add("dram.l2p", t0, rec.now(), -1, req)
		}
		return nil
	})
	for i, dev := range d.devs {
		a := dev.DRAM().Stats()
		acts += a.Activations - before[i].Activations
		accesses += a.Activations + a.RowHits - before[i].Activations - before[i].RowHits
	}
	return accesses, acts, err
}

// conflictAddr returns the same-bank, distant-row address the FTL's
// amplification alternates with (row bit 9 flipped, column 0).
func conflictAddr(mem *dram.Module, addr uint64) uint64 {
	mp := mem.Mapper()
	loc := mp.Map(addr)
	loc.Row ^= 1 << 9
	loc.Col = 0
	return mp.Unmap(loc)
}

// nandRung replays the flash work of every command on a standalone
// nand.Array of the workload's geometry (the device does not expose its
// own): the host read of the mapped page, the GC reads, and the programs
// at a rolling write pointer that erases each block before reusing it.
// The array starts fully programmed, so reads copy real pages. It returns
// the number of flash operations performed.
func nandRung(cfg config, rec *spanRecorder, ops []nandOps) (uint64, error) {
	spec, _ := servingSpec(cfg.workload, cfg.scale)
	var work bool
	for _, o := range ops {
		if o.readPPN != nand.InvalidPPN || o.programs > 0 || o.gcReads > 0 {
			work = true
			break
		}
	}
	if !work || spec.Flash == nil {
		return 0, nil
	}
	geo := *spec.Flash
	arr := nand.New(geo, nand.DefaultLatency())
	buf := make([]byte, geo.PageBytes)
	total := nand.PPN(geo.TotalPages())
	for p := nand.PPN(0); p < total; p++ {
		if err := arr.Program(p, buf); err != nil {
			return 0, err
		}
	}
	ppb := nand.PPN(geo.PagesPerBlock)
	var wp nand.PPN
	var n uint64
	for i, o := range ops {
		// The array has no faults attached and is driven in program
		// order, so an error here is a bug in this rung; keep the first.
		var first error
		keep := func(err error) {
			if first == nil {
				first = err
			}
		}
		t0 := rec.now()
		if o.readPPN != nand.InvalidPPN {
			keep(arr.Read(o.readPPN, buf))
			n++
		}
		src := (wp/ppb + 1) % (total / ppb) * ppb
		for k := uint64(0); k < o.gcReads; k++ {
			keep(arr.Read(src+nand.PPN(k)%ppb, buf))
			n++
		}
		for k := uint64(0); k < o.programs; k++ {
			if wp%ppb == 0 {
				keep(arr.EraseBlock(geo.BlockOf(wp)))
				n++
			}
			keep(arr.Program(wp, buf))
			n++
			wp = (wp + 1) % total
		}
		rec.add("nand.ops", t0, rec.now(), -1, int64(i))
		if first != nil {
			return n, fmt.Errorf("nand rung: %w", first)
		}
	}
	return n, nil
}

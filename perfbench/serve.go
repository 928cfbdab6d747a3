package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
	"ftlhammer/internal/transport"
)

// Workload shapes. Both serving workloads are closed loops: every session
// waits for its batch's completions before sending the next batch.
const (
	// hammerAggressors is how many trimmed LBAs each hammer session
	// replays reads of (hammerload -pattern hammer uses three).
	hammerAggressors = 3
	// mixedDevices is the mixed workload's fleet size; it runs one
	// session per device.
	mixedDevices = 2
	// mixedReadFrac is the mixed workload's read share.
	mixedReadFrac = 0.8
	// mixedFill is the share of each namespace the working set covers.
	mixedFill = 0.8
	// mixedPrecondition is how many random overwrites setup issues per
	// working-set LBA, so GC runs many cycles before timing starts.
	mixedPrecondition = 2
	// stampMagic opens every block the mixed workload writes.
	stampMagic = 0x5042_5354_414d_5031 // "PBSTAMP1"
	// servingProcs is the GOMAXPROCS the serving workloads run at. One
	// client thread drives every session in turn (see drive), so client,
	// server and simulator take turns on one core and a batch round trip
	// is the program's own work. With a client thread per session and a
	// core each, round trips also waited on wake-ups across cores, whose
	// cost on a shared host changed from run to run.
	servingProcs = 1
)

// servingSessions returns how many sessions, one tenant each, a serving
// workload runs: one attacker on hammer, one per fleet device on mixed.
func servingSessions(workload string) int {
	if workload == "hammer" {
		return 1
	}
	return mixedDevices
}

// servingSpec returns the device spec and fleet size of a serving
// workload, with one tenant per device. hammer is one device with
// hammerd's weak profile at the paper's ×5 amplification; mixed is a
// two-device fleet of invulnerable devices with flash sized by the scale.
func servingSpec(workload string, sc scale) (fleet.DeviceSpec, int) {
	if workload == "hammer" {
		return fleet.DeviceSpec{Profile: "weak", Tenants: 1, Amplify: 5}, 1
	}
	geom := nand.Geometry{
		Channels:      4,
		DiesPerChan:   2,
		PlanesPerDie:  2,
		BlocksPerPlan: sc.mixedBlocksPerPlane,
		PagesPerBlock: sc.mixedPagesPerBlock,
		PageBytes:     4096,
	}
	return fleet.DeviceSpec{Profile: "invulnerable", Tenants: 1, Amplify: 1, Flash: &geom}, mixedDevices
}

// session is one client's command generator and its expected-state model.
// Everything it produces is a pure function of the workload seed, so a
// fresh session replays the same stream on every ladder rung.
type session struct {
	idx    int
	tenant int // the NSID a client puts in its hello (fleet-wide on mixed)
	dev    int // member device index
	nsid   int // device-local namespace
	hammer bool
	batch  int

	rng     *sim.RNG
	aggr    []uint64 // hammer: trimmed aggressor LBAs
	ws      uint64   // mixed: working-set size in LBAs
	last    []uint64 // mixed: version last written per working-set LBA
	version uint64
	seq     uint64

	cmds   []nvme.Command
	expect []uint64 // per command: version a read must return
	bufs   [][]byte
}

func newSession(idx, tenant, dev, nsid int, perNS uint64, hammer bool, sc scale, seed uint64) *session {
	s := &session{
		idx: idx, tenant: tenant, dev: dev, nsid: nsid, hammer: hammer, batch: sc.batch,
		rng:    sim.NewRNG(sim.SplitSeed(seed, uint64(1000+idx))),
		cmds:   make([]nvme.Command, sc.batch),
		expect: make([]uint64, sc.batch),
		bufs:   make([][]byte, sc.batch),
	}
	for i := range s.bufs {
		s.bufs[i] = make([]byte, 4096)
	}
	if hammer {
		// One aggressor in each of three equal slices of the namespace,
		// so the trimmed entries sit in distinct DRAM rows.
		third := perNS / hammerAggressors
		for k := uint64(0); k < hammerAggressors; k++ {
			s.aggr = append(s.aggr, k*third+s.rng.Uint64n(third))
		}
		return s
	}
	s.ws = uint64(float64(perNS) * mixedFill)
	s.last = make([]uint64, s.ws)
	return s
}

// stamp fills buf with the block a mixed write stores: magic, tenant,
// LBA and version.
func stamp(buf []byte, tenant int, lba, version uint64) {
	binary.LittleEndian.PutUint64(buf[0:], stampMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(tenant))
	binary.LittleEndian.PutUint64(buf[16:], lba)
	binary.LittleEndian.PutUint64(buf[24:], version)
}

// setupLen returns how many commands the session's setup stream has: the
// hammer session trims its aggressors; the mixed session writes its whole
// working set, then overwrites it at random mixedPrecondition times over.
func (s *session) setupLen() uint64 {
	if s.hammer {
		return hammerAggressors
	}
	return s.ws * (1 + mixedPrecondition)
}

// setupNext fills s.cmds with setup commands [from, from+batch) of the
// setup stream and returns them. Setup draws from its own generator
// (prng), so the measured stream is the same whatever the setup length.
func (s *session) setupNext(from uint64, prng *sim.RNG) []nvme.Command {
	n := s.setupLen() - from
	if n > uint64(s.batch) {
		n = uint64(s.batch)
	}
	for i := uint64(0); i < n; i++ {
		k := from + i
		c := nvme.Command{Tag: k, Buf: s.bufs[i]}
		switch {
		case s.hammer:
			c.Op, c.LBA = nvme.OpTrim, ftl.LBA(s.aggr[k])
		default:
			lba := k
			if k >= s.ws {
				lba = prng.Uint64n(s.ws)
			}
			s.version++
			s.last[lba] = s.version
			stamp(c.Buf, s.tenant, lba, s.version)
			c.Op, c.LBA = nvme.OpWrite, ftl.LBA(lba)
		}
		s.cmds[i] = c
	}
	return s.cmds[:n]
}

// next fills s.cmds with the session's next batch.
func (s *session) next() []nvme.Command {
	for i := range s.cmds {
		c := nvme.Command{Tag: s.seq, Buf: s.bufs[i]}
		if s.hammer {
			c.Op = nvme.OpRead
			c.LBA = ftl.LBA(s.aggr[s.seq%hammerAggressors])
		} else {
			lba := s.rng.Uint64n(s.ws)
			c.LBA = ftl.LBA(lba)
			if s.rng.Float64() < mixedReadFrac {
				c.Op = nvme.OpRead
				s.expect[i] = s.last[lba]
			} else {
				c.Op = nvme.OpWrite
				s.version++
				s.last[lba] = s.version
				stamp(c.Buf, s.tenant, lba, s.version)
			}
		}
		s.seq++
		s.cmds[i] = c
	}
	return s.cmds
}

// check verifies one executed command of the current batch: no command
// error, hammer reads unmapped, mixed reads returning the version the
// session last wrote. It returns "" when the command is correct.
func (s *session) check(i int, mapped bool, err error) string {
	c := s.cmds[i]
	if err != nil {
		return fmt.Sprintf("tenant %d %s LBA %d: %v", s.tenant, c.Op, c.LBA, err)
	}
	if c.Op != nvme.OpRead {
		return ""
	}
	if s.hammer {
		if mapped {
			return fmt.Sprintf("tenant %d: trimmed aggressor LBA %d read back mapped", s.tenant, c.LBA)
		}
		return ""
	}
	b := c.Buf
	got := [4]uint64{
		binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:]),
		binary.LittleEndian.Uint64(b[16:]), binary.LittleEndian.Uint64(b[24:]),
	}
	want := [4]uint64{stampMagic, uint64(s.tenant), uint64(c.LBA), s.expect[i]}
	if !mapped || got != want {
		return fmt.Sprintf("tenant %d: corrupt read of LBA %d: got stamp %x mapped=%v, want version %d",
			s.tenant, c.LBA, got, mapped, s.expect[i])
	}
	return ""
}

// devices is one freshly built, prepared set of devices for a serving
// workload plus the sessions whose streams drive them.
type devices struct {
	workload string
	spec     fleet.DeviceSpec
	fl       *fleet.Fleet // mixed only
	devs     []*nvme.Device
	sessions []*session
	perNS    uint64
}

// buildDevices assembles the workload's devices with the same public
// constructors hammerd uses and runs every session's setup stream through
// them in-process, in session order, so every build from one seed starts
// in a byte-identical state. reg, when non-nil, is the observability
// registry (hammer) or the fleet's root registry (mixed).
func buildDevices(workload string, sc scale, seed uint64, reg *obs.Registry) (*devices, error) {
	spec, n := servingSpec(workload, sc)
	d := &devices{workload: workload, spec: spec}
	if n == 1 {
		bd, err := spec.Build(seed, reg)
		if err != nil {
			return nil, err
		}
		d.devs, d.perNS = []*nvme.Device{bd.Device}, bd.PerNS
		for i := 0; i < servingSessions(workload); i++ {
			d.sessions = append(d.sessions, newSession(i, i+1, 0, i+1, bd.PerNS, true, sc, seed))
		}
	} else {
		f, err := fleet.New(fleet.Config{
			Devices:   n,
			Placement: fleet.Placement{Policy: fleet.PolicySpread},
			Spec:      spec,
			Seed:      seed,
			Obs:       reg,
		})
		if err != nil {
			return nil, err
		}
		d.fl = f
		for i := 0; i < n; i++ {
			d.devs = append(d.devs, f.Member(i).BD.Device)
		}
		d.perNS = f.Member(0).BD.PerNS
		for i := 0; i < servingSessions(workload); i++ {
			r, err := f.Table().Lookup(i + 1)
			if err != nil {
				return nil, err
			}
			d.sessions = append(d.sessions, newSession(i, i+1, r.Device, r.NSID, d.perNS, false, sc, seed))
		}
	}
	var comps []nvme.Completion
	for _, s := range d.sessions {
		ns, err := d.namespace(s)
		if err != nil {
			return nil, err
		}
		prng := sim.NewRNG(sim.SplitSeed(seed, uint64(2000+s.idx)))
		for k := uint64(0); k < s.setupLen(); k += uint64(s.batch) {
			b := s.setupNext(k, prng)
			for i := range b {
				b[i].NS = ns
			}
			comps = d.devs[s.dev].DoBatch(context.Background(), b, comps[:0])
			for _, c := range comps {
				if c.Err != nil {
					return nil, fmt.Errorf("setup of tenant %d: %w", s.tenant, c.Err)
				}
			}
		}
	}
	return d, nil
}

// namespace returns the device namespace a session's commands target.
func (d *devices) namespace(s *session) (*nvme.Namespace, error) {
	ns, ok := d.devs[s.dev].NamespaceByID(s.nsid)
	if !ok {
		return nil, fmt.Errorf("device %d has no namespace %d", s.dev, s.nsid)
	}
	return ns, nil
}

// describe writes the device, DRAM and flash sizes for the provenance
// header.
func (d *devices) describe() string {
	dev := d.devs[0]
	id := dev.Identify()
	flash := "the device builder's default flash geometry"
	if g := d.spec.Flash; g != nil {
		flash = fmt.Sprintf("flash %d ch × %d dies × %d planes × %d blocks × %d pages of %d B (%.0f MiB)",
			g.Channels, g.DiesPerChan, g.PlanesPerDie, g.BlocksPerPlan, g.PagesPerBlock, g.PageBytes,
			float64(g.Capacity())/(1<<20))
	}
	s := fmt.Sprintf("%d device(s) (%s, %s L2P), each %.1f MiB logical, %s, DRAM %.0f MiB holding a %.0f KiB L2P table; %d namespace(s) of %d LBAs per device; %d session(s)",
		len(d.devs), id.Model, id.L2PKind, float64(id.Capacity)/(1<<20), flash,
		float64(dev.DRAM().Config().Geometry.Capacity())/(1<<20), float64(dev.FTL().TableBytes())/(1<<10),
		id.Namespaces, d.perNS, len(d.sessions))
	if d.workload == "hammer" {
		return s + fmt.Sprintf(", %d trimmed aggressors per session", hammerAggressors)
	}
	ft := dev.FTL().Stats()
	return s + fmt.Sprintf(", working set %d LBAs per session (%.0f%% of the namespace); setup ran %d GC cycles on device 0 (write amp %.2f)",
		d.sessions[0].ws, 100*mixedFill, ft.GCRuns, dev.FTL().WriteAmplification())
}

// stack is a serving stack: prepared devices behind a transport server
// (hammer) or a fleet frontend (mixed), with one dialed client per
// session.
type stack struct {
	*devices
	cancel  context.CancelFunc
	serving sync.WaitGroup
	clients []*transport.Client
	reg     *obs.Registry
}

// buildStack builds, prepares, starts and dials a serving stack. direct
// dials each member's own server instead of the fleet frontend.
func buildStack(ctx context.Context, workload string, sc scale, seed uint64, direct bool, reg *obs.Registry) (*stack, error) {
	d, err := buildDevices(workload, sc, seed, reg)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	st := &stack{devices: d, cancel: cancel, reg: reg}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	addr := ln.Addr().String()
	// Serve and ServeFrontend return their closed errors once sctx is
	// canceled; a failure while serving surfaces as client errors.
	if d.fl == nil {
		srv := transport.NewServer(d.devs[0], transport.Config{})
		st.serving.Add(1)
		go func() {
			defer st.serving.Done()
			_ = srv.Serve(sctx, ln)
		}()
	} else {
		if err := d.fl.Start(sctx); err != nil {
			cancel()
			ln.Close()
			return nil, err
		}
		st.serving.Add(1)
		go func() {
			defer st.serving.Done()
			_ = d.fl.ServeFrontend(sctx, ln)
		}()
	}
	for _, s := range d.sessions {
		to, nsid := addr, s.tenant
		if direct && d.fl != nil {
			to, nsid = d.fl.Member(s.dev).Addr(), s.nsid
		}
		c, err := transport.Dial(ctx, to, transport.ClientConfig{NSID: nsid})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("session %d refused: %w", s.idx, err)
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// close disconnects the clients, drains the servers and waits for every
// serving goroutine to exit.
func (st *stack) close() error {
	for _, c := range st.clients {
		c.Close()
	}
	st.cancel()
	st.serving.Wait()
	var err error
	if st.fl != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = st.fl.Shutdown(sctx)
		cancel()
	}
	return err
}

// wireStats returns the transport bytes and window stalls the stack's
// servers counted; call after close, with a registry attached.
func (st *stack) wireStats() (bytes, stalls uint64) {
	var r *obs.Registry
	if st.fl != nil {
		r = st.fl.MergedRegistry()
	} else {
		r = st.reg
		r.Flush()
	}
	return r.Counter("transport_bytes_read_total").Value() + r.Counter("transport_bytes_written_total").Value(),
		r.Counter("transport_overload_total").Value()
}

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	cmds      int64
	batches   int64
	rttSum    time.Duration
	wall      time.Duration
	attempted int64
	failed    int64
	problem   string
	// windows splits a timed phase into equal slices of winLen; the
	// end-to-end metrics are medians over them, so a burst of outside
	// load in one slice does not move the result.
	windows []window
	winLen  time.Duration
}

// window is one slice of a timed phase: the batches that completed in it,
// their round trips, and the process CPU time the slice used.
type window struct {
	cmds int64
	cpu  time.Duration
	rtt  histogram
}

func (l loopStats) iops() float64 {
	if l.wall <= 0 {
		return 0
	}
	return float64(l.cmds) / l.wall.Seconds()
}

// meanRTTPerCmd is the mean batch round trip divided by the batch size:
// the client-visible time per command.
func (l loopStats) meanRTTPerCmd(batch int) time.Duration {
	if l.batches == 0 {
		return 0
	}
	return l.rttSum / time.Duration(l.batches*int64(batch))
}

// windowMedians returns the median over windows of the throughput, the
// batch p50 and p99, and the CPU time per command.
func (l loopStats) windowMedians() (iops, p50, p99, cpuPerCmd float64) {
	var tp, a, b, c []float64
	for i := range l.windows {
		w := &l.windows[i]
		if w.cmds == 0 {
			continue
		}
		tp = append(tp, float64(w.cmds)/l.winLen.Seconds())
		a = append(a, us(w.rtt.quantile(0.50)))
		b = append(b, us(w.rtt.quantile(0.99)))
		c = append(c, us(w.cpu)/float64(w.cmds))
	}
	return median(tp), median(a), median(b), median(c)
}

// drive runs the closed loop: one client thread sends each session's
// next batch in turn and waits for its completions before sending the
// next, so one batch is in flight at a time. With maxBatches > 0 each
// session sends exactly that many batches, all measured. Otherwise
// batches started before warm elapses are not measured, and batches
// start until warm + windows×winLen has elapsed; each measured batch
// lands in the window it completed in. rec, when non-nil, records a span
// around every round trip.
func (st *stack) drive(ctx context.Context, warm time.Duration, windows int, winLen time.Duration, maxBatches int, rec *spanRecorder, spanName string) loopStats {
	out := loopStats{windows: takeWindows(windows), winLen: winLen}
	t0 := time.Now()
	measureFrom := t0.Add(warm)
	end := measureFrom.Add(time.Duration(windows) * winLen)
	// marks[k] is the process CPU time at the start of window k.
	marks := make([]time.Duration, windows+1)
	marked := make(chan struct{})
	go func() {
		defer close(marked)
		for k := range marks {
			time.Sleep(time.Until(measureFrom.Add(time.Duration(k) * winLen)))
			marks[k] = cpuTime()
		}
	}()
	last := measureFrom
loop:
	for b := 0; maxBatches <= 0 || b < maxBatches; b++ {
		for i, s := range st.sessions {
			now := time.Now()
			if maxBatches <= 0 && !now.Before(end) {
				break loop
			}
			c := st.clients[i]
			cmds := s.next()
			out.attempted += int64(len(cmds))
			var sp int32
			if rec != nil {
				sp = rec.open(spanName, -1, int64(s.idx)<<32|int64(b))
			}
			t := time.Now()
			err := submitRing(ctx, c, cmds)
			done := time.Now()
			rtt := done.Sub(t)
			if rec != nil {
				rec.close(sp)
			}
			if err != nil {
				out.failed += int64(len(cmds))
				if out.problem == "" {
					out.problem = fmt.Sprintf("session %d: %v", s.idx, err)
				}
				break loop
			}
			for j, cp := range c.Completions() {
				if why := s.check(j, cp.Mapped, cp.Err); why != "" {
					out.failed++
					if out.problem == "" {
						out.problem = why
					}
				}
			}
			if maxBatches <= 0 && now.Before(measureFrom) {
				continue
			}
			out.cmds += int64(len(cmds))
			out.batches++
			out.rttSum += rtt
			last = done
			if winLen > 0 {
				if k := int(done.Sub(measureFrom) / winLen); k < windows {
					out.windows[k].cmds += int64(len(cmds))
					out.windows[k].rtt.add(rtt)
				}
			}
		}
	}
	<-marked
	for k := range out.windows {
		out.windows[k].cpu = marks[k+1] - marks[k]
	}
	out.wall = last.Sub(measureFrom)
	return out
}

// windowBuf holds the windows drive fills. runWorkload reserves it
// before the heap sampler starts, so the benchmark's own histograms add
// the same amount to peak_heap_mib on every run, not an amount that
// depends on whether the collector ran while drive held them.
var windowBuf []window

// reserveWindows allocates windowBuf for up to windows windows.
func reserveWindows(windows int) { windowBuf = make([]window, windows) }

// takeWindows returns windowBuf cleared and cut to n windows, or a new
// slice when it is shorter than n.
func takeWindows(n int) []window {
	if n > len(windowBuf) {
		return make([]window, n)
	}
	w := windowBuf[:n]
	clear(w)
	return w
}

// submitRing sends one batch and waits for its completions.
func submitRing(ctx context.Context, c *transport.Client, cmds []nvme.Command) error {
	for _, cmd := range cmds {
		if err := c.Submit(cmd); err != nil {
			return err
		}
	}
	n, err := c.Ring(ctx)
	if err == nil && n != len(cmds) {
		err = errors.New("short completion batch")
	}
	return err
}

// setupStacks builds the serving stack repeatedly (see medianSetup),
// tearing all but the last down, and returns the last stack with the
// median setup time.
func setupStacks(ctx context.Context, cfg config) (*stack, time.Duration, error) {
	var st *stack
	setup, err := medianSetup(cfg.scale, func() error {
		var err error
		st, err = buildStack(ctx, cfg.workload, cfg.scale, cfg.seed, false, nil)
		return err
	}, func() error {
		err := st.close()
		st = nil // let the collector reclaim the old stack before the next build
		return err
	})
	return st, setup, err
}

// runServing runs the hammer or mixed workload.
func runServing(ctx context.Context, cfg config) (measurement, error) {
	m := newMeasurement()
	st, setup, err := setupStacks(ctx, cfg)
	if err != nil {
		return m, err
	}
	fmt.Fprintf(cfg.out, "stack: %s\n", st.describe())
	warm := cfg.seconds / 10
	if warm > maxWarm {
		warm = maxWarm
	}
	if !cfg.trace {
		ls := st.drive(ctx, warm, measureWindows, cfg.seconds/measureWindows, 0, nil, "")
		if err := st.close(); err != nil {
			return m, err
		}
		m.attempted, m.failed, m.problem = ls.attempted, ls.failed, ls.problem
		m.attempted += int64(len(st.sessions)) // dials
		iops, p50, p99, cpu := ls.windowMedians()
		m.values["iops"] = iops
		m.values["batch_p50_us"] = p50
		m.values["batch_p99_us"] = p99
		m.values["cpu_us_per_cmd"] = cpu
		if iops > 0 {
			m.values["suite_s"] = suiteCmds / iops
		}
		m.values["setup_s"] = setup.Seconds()
		fmt.Fprintf(cfg.out, "measured %d commands in %v over %d sessions, %d batch round trips; iops, p50, p99 and CPU are medians over %d windows of %v (≥%d batches per window)\n",
			ls.cmds, ls.wall.Round(time.Millisecond), len(st.sessions), ls.batches, measureWindows,
			cfg.seconds/measureWindows, minWindowBatches(ls))
		return m, nil
	}
	return runLadder(ctx, cfg, st, warm, m)
}

// measureWindows is how many equal windows a timed phase is split into;
// maxWarm caps the untimed warm-up before it (a tenth of the run).
const (
	measureWindows = 40
	maxWarm        = 2 * time.Second
)

// minWindowBatches returns the fewest batches any window holds.
func minWindowBatches(ls loopStats) uint64 {
	n := uint64(0)
	for i := range ls.windows {
		if c := ls.windows[i].rtt.count(); i == 0 || c < n {
			n = c
		}
	}
	return n
}

// suiteCmds is the serving workloads' fixed unit of work for suite_s.
const suiteCmds = 1 << 16

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

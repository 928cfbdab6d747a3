package perf

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
	"ftlhammer/internal/transport"
)

// NewDevice builds the standard benchmark device: SmallGeometry DRAM,
// TinyGeometry flash, one namespace spanning the whole FTL, no faults.
// It panics on configuration errors — the harness has no *testing.T and
// a broken fixture is a bug, not a measurement.
func NewDevice(seed uint64, rob nvme.Robust) (*nvme.Device, *nvme.Namespace) {
	world := sim.NewWorld(seed)
	mem := dram.New(dram.Config{
		Geometry: dram.SmallGeometry(),
		Profile:  dram.InvulnerableProfile(),
		Seed:     seed,
	}, world)
	flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency())
	f, err := ftl.New(ftl.Config{NumLBAs: flash.Geometry().TotalPages() * 3 / 4}, mem, flash)
	if err != nil {
		panic(fmt.Sprintf("perf: ftl.New: %v", err))
	}
	dev := nvme.New(nvme.Config{Robust: rob}, f, mem, flash, world)
	ns, err := dev.AddNamespace(f.NumLBAs(), 0)
	if err != nil {
		panic(fmt.Sprintf("perf: AddNamespace: %v", err))
	}
	return dev, ns
}

// warmDevice maps a spread of LBAs so reads hit the flash path and the
// lazily materialized state (DRAM frames, flash pages, L2P) is resident
// before the timer starts.
func warmDevice(dev *nvme.Device, ns *nvme.Namespace, lbas int) []byte {
	buf := make([]byte, dev.BlockBytes())
	for i := 0; i < lbas; i++ {
		c, err := dev.Do(nvme.Command{Op: nvme.OpWrite, NS: ns, LBA: ftl.LBA(i), Buf: buf})
		if err != nil || c.Err != nil {
			panic(fmt.Sprintf("perf: warm write %d: %v / %v", i, err, c.Err))
		}
	}
	return buf
}

// BenchDoContextRead measures a mapped in-process read through
// Device.Do — the tightest loop in the simulator.
func BenchDoContextRead(b *testing.B) {
	dev, ns := NewDevice(1, nvme.Robust{})
	buf := warmDevice(dev, ns, 64)
	cmd := nvme.Command{Op: nvme.OpRead, NS: ns, LBA: 7, Buf: buf}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, err := dev.Do(cmd); err != nil || c.Err != nil {
			b.Fatalf("Do: %v / %v", err, c.Err)
		}
	}
}

// BenchDoContextWrite measures an in-process overwrite, which exercises
// the FTL allocation path and, at steady state, garbage collection and
// the flash array's recycled page buffers.
func BenchDoContextWrite(b *testing.B) {
	dev, ns := NewDevice(2, nvme.Robust{})
	buf := warmDevice(dev, ns, 64)
	cmd := nvme.Command{Op: nvme.OpWrite, NS: ns, LBA: 7, Buf: buf}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, err := dev.Do(cmd); err != nil || c.Err != nil {
			b.Fatalf("Do: %v / %v", err, c.Err)
		}
	}
}

// BenchRobustRead measures the robust-path happy case: retry machinery
// armed, no faults firing. The delta against BenchDoContextRead is the
// pure cost of the robustness layer.
func BenchRobustRead(b *testing.B) {
	dev, ns := NewDevice(3, nvme.DefaultRobust())
	buf := warmDevice(dev, ns, 64)
	cmd := nvme.Command{Op: nvme.OpRead, NS: ns, LBA: 7, Buf: buf}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, err := dev.Do(cmd); err != nil || c.Err != nil {
			b.Fatalf("Do: %v / %v", err, c.Err)
		}
	}
}

// BenchDoBatch measures DoBatch with a recycled completions slice — the
// engine-shard inner loop.
func BenchDoBatch(b *testing.B) {
	const batch = 16
	dev, ns := NewDevice(4, nvme.Robust{})
	buf := warmDevice(dev, ns, 64)
	cmds := make([]nvme.Command, batch)
	for i := range cmds {
		cmds[i] = nvme.Command{Op: nvme.OpRead, NS: ns, LBA: ftl.LBA(i), Buf: buf}
	}
	comps := make([]nvme.Completion, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comps = dev.DoBatch(nil, cmds, comps[:0])
	}
	if len(comps) != batch {
		b.Fatalf("DoBatch returned %d completions", len(comps))
	}
}

// BenchDRAMBatch measures a frame-sized (4 KiB) DRAM read — the batched
// touch-application path that backs every L2P and data access.
func BenchDRAMBatch(b *testing.B) {
	world := sim.NewWorld(5)
	mem := dram.New(dram.Config{
		Geometry: dram.SmallGeometry(),
		Profile:  dram.InvulnerableProfile(),
		Seed:     5,
	}, world)
	const span = 4096
	buf := make([]byte, span)
	// Touch a few frames so the sparse store is materialized.
	for addr := uint64(0); addr < 8*span; addr += span {
		if err := mem.Write(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mem.Read(uint64(i%8)*span, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// NewHammerDevice builds the hammer workload's device half: one tenant on
// hammerd's weak DRAM profile at the paper's ×5 firmware amplification
// (fleet's "weak" spec). It trims three aggressor LBAs, one in each third
// of the namespace so their L2P entries sit in distinct DRAM rows, and
// returns read commands for them. Reads of trimmed LBAs never reach
// flash, so each one costs only its L2P activations.
func NewHammerDevice(seed uint64) (*nvme.Device, [3]nvme.Command) {
	bd, err := fleet.DeviceSpec{Profile: "weak", Tenants: 1, Amplify: 5}.Build(seed, nil)
	if err != nil {
		panic(fmt.Sprintf("perf: hammer device: %v", err))
	}
	dev := bd.Device
	ns, ok := dev.NamespaceByID(1)
	if !ok {
		panic("perf: hammer device has no namespace 1")
	}
	buf := make([]byte, dev.BlockBytes())
	var cmds [3]nvme.Command
	third := ns.NumLBAs / uint64(len(cmds))
	for k := range cmds {
		lba := ftl.LBA(uint64(k)*third + third/2)
		if c, err := dev.Do(nvme.Command{Op: nvme.OpTrim, NS: ns, LBA: lba}); err != nil || c.Err != nil {
			panic(fmt.Sprintf("perf: trim %d: %v / %v", lba, err, c.Err))
		}
		cmds[k] = nvme.Command{Op: nvme.OpRead, NS: ns, LBA: lba, Buf: buf}
	}
	return dev, cmds
}

// BenchHammerRead measures one hammered read in process: a trimmed-LBA
// read on the weak ×5 device, cycling over three aggressors as the
// hammer workload does. Unlike the invulnerable-profile benchmarks it
// reaches the DRAM disturbance model on every activation.
func BenchHammerRead(b *testing.B) {
	dev, cmds := NewHammerDevice(7)
	for i := 0; i < 1024; i++ {
		if _, err := dev.Do(cmds[i%len(cmds)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, err := dev.Do(cmds[i%len(cmds)]); err != nil || c.Err != nil {
			b.Fatalf("Do: %v / %v", err, c.Err)
		}
	}
}

// BenchDRAMAmplify measures one firmware amplification step of the hammer
// device: the conflict-row activation followed by the L2P entry-row
// activation (ftl's amplify loop), with command-rate back-pressure
// charged to the clock as the device front end does.
func BenchDRAMAmplify(b *testing.B) {
	dev, cmds := NewHammerDevice(8)
	mem, clk := dev.DRAM(), dev.Clock()
	entry, err := dev.FTL().EntryAddr(cmds[0].NS.StartLBA + cmds[0].LBA)
	if err != nil {
		b.Fatal(err)
	}
	loc := mem.Mapper().Map(entry)
	loc.Row ^= 1 << 9 // ftl's conflict row: same bank, distant row
	loc.Col = 0
	conflict := mem.Mapper().Unmap(loc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.Activate(conflict)
		mem.Activate(entry)
		clk.Advance(mem.TakeStall())
	}
}

// BenchServerBatch measures one full networked window over loopback TCP:
// client-side batch encode, server decode, sharded engine execution,
// completion encode, and the client's parse — the end-to-end wire path
// per command.
func BenchServerBatch(b *testing.B) {
	const window = 16
	dev, _ := NewDevice(6, nvme.Robust{})
	srv := transport.NewServer(dev, transport.Config{Window: window})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(context.Background(), ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}()

	c, err := transport.Dial(context.Background(), ln.Addr().String(),
		transport.ClientConfig{NSID: 1, Window: window})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, c.BlockBytes())

	ring := func() {
		for i := 0; i < window; i++ {
			if err := c.Submit(nvme.Command{Op: nvme.OpRead, LBA: ftl.LBA(i), Buf: buf}); err != nil {
				b.Fatal(err)
			}
		}
		if n, err := c.Ring(context.Background()); err != nil || n != window {
			b.Fatalf("Ring: n=%d err=%v", n, err)
		}
	}
	ring() // warm the pooled batch working set
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += window {
		ring()
	}
}

// Case names one canonical hot-path benchmark. Names are stable: they key
// BENCH_baseline.json entries and the perfgate comparison.
type Case struct {
	Name  string
	Bench func(*testing.B)
}

// Cases returns the canonical hot-path benchmark set in a stable order.
func Cases() []Case {
	return []Case{
		{"DoContextRead", BenchDoContextRead},
		{"DoContextWrite", BenchDoContextWrite},
		{"RobustRead", BenchRobustRead},
		{"DoBatch", BenchDoBatch},
		{"DRAMBatch", BenchDRAMBatch},
		{"ServerBatch", BenchServerBatch},
	}
}

// AggregateIOPS runs `workers` goroutines, each with its own private
// device and simulation world (separate virtual clocks — this measures
// host throughput of independent simulations, the trial-engine shape),
// each executing opsPerWorker mixed read/write commands. It returns
// total simulated commands per wall-clock second.
func AggregateIOPS(workers, opsPerWorker int) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			dev, ns := NewDevice(seed, nvme.Robust{})
			buf := warmDevice(dev, ns, 64)
			n := ns.NumLBAs
			for i := 0; i < opsPerWorker; i++ {
				op := nvme.OpRead
				if i&3 == 0 {
					op = nvme.OpWrite
				}
				cmd := nvme.Command{Op: op, NS: ns, LBA: ftl.LBA(uint64(i*13) % n), Buf: buf}
				if c, err := dev.Do(cmd); err != nil || c.Err != nil {
					panic(fmt.Sprintf("perf: worker op %d: %v / %v", i, err, c.Err))
				}
			}
		}(uint64(100 + w))
	}
	wg.Wait()
	elapsed := time.Since(start)
	return float64(workers*opsPerWorker) / elapsed.Seconds()
}

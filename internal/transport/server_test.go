package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
)

// newTestDevice builds a small device with the given namespace count. The
// returned injector (nil for an empty plan) is shared by the device layers
// and suitable for the server's Faults config.
func newTestDevice(t *testing.T, seed uint64, tenants int, plan faults.Plan) (*nvme.Device, *faults.Injector) {
	t.Helper()
	world := sim.NewWorld(seed)
	inj := faults.New(plan, world)
	mem := dram.New(dram.Config{
		Geometry: dram.SmallGeometry(),
		Profile:  dram.InvulnerableProfile(),
		Seed:     seed,
	}, world)
	flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency(), nand.WithFaults(inj))
	f, err := ftl.New(ftl.Config{NumLBAs: flash.Geometry().TotalPages() * 3 / 4}, mem, flash)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFaults(inj)
	dev := nvme.New(nvme.Config{Faults: inj}, f, mem, flash, world)
	per := f.NumLBAs() / uint64(tenants)
	for i := 0; i < tenants; i++ {
		if _, err := dev.AddNamespace(per, 0); err != nil {
			t.Fatal(err)
		}
	}
	return dev, inj
}

// startServer runs srv on a loopback listener and returns its address and
// a stop function that drains it and waits for Serve to return.
func startServer(t *testing.T, srv *Server) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(context.Background(), ln) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
				t.Errorf("Serve returned %v, want ErrServerClosed", err)
			}
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// TestConcurrentSessions drives many concurrent tenants through one server
// (run under -race this also exercises the clock-ownership funneling) and
// checks the device-side per-namespace totals against what clients sent.
func TestConcurrentSessions(t *testing.T) {
	const (
		tenants     = 4
		sessions    = 64
		opsPer      = 120
		batchSize   = 8
		readsPerOps = 3 // of every 4 ops, 3 reads + 1 write
	)
	dev, _ := newTestDevice(t, 42, tenants, faults.Plan{})
	// Force a multi-shard engine (the default would be 1 on a 1-CPU box)
	// so cross-shard clock handoff and devMu serialization run under
	// -race regardless of the host.
	srv := NewServer(dev, Config{Window: batchSize, EngineShards: 4})
	addr, stop := startServer(t, srv)

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				c, err := Dial(context.Background(), addr, ClientConfig{
					NSID: 1 + i%tenants, Window: batchSize,
				})
				if err != nil {
					return err
				}
				defer c.Close()
				buf := make([]byte, c.BlockBytes())
				for op := 0; op < opsPer; op += batchSize {
					for j := 0; j < batchSize; j++ {
						cmd := nvme.Command{LBA: ftl.LBA((op + j) % int(c.NumLBAs())), Buf: buf, Tag: uint64(op + j)}
						if (op+j)%4 == readsPerOps {
							cmd.Op = nvme.OpWrite
						} else {
							cmd.Op = nvme.OpRead
						}
						if err := c.Submit(cmd); err != nil {
							return err
						}
					}
					if _, err := c.Ring(context.Background()); err != nil {
						return err
					}
					for _, comp := range c.Completions() {
						if comp.Err != nil {
							return comp.Err
						}
					}
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	stop()

	perNS := sessions / tenants * opsPer
	wantWrites := uint64(perNS / 4)
	wantReads := uint64(perNS) - wantWrites
	for _, ns := range dev.Namespaces() {
		st := ns.Stats()
		if st.Reads != wantReads || st.Writes != wantWrites {
			t.Errorf("ns %d: reads=%d writes=%d, want %d/%d", ns.ID, st.Reads, st.Writes, wantReads, wantWrites)
		}
	}
}

func TestHandshakeRejections(t *testing.T) {
	dev, _ := newTestDevice(t, 7, 2, faults.Plan{})
	srv := NewServer(dev, Config{Window: 8})
	addr, _ := startServer(t, srv)

	var remote *RemoteError
	if _, err := Dial(context.Background(), addr, ClientConfig{NSID: 99}); !errors.As(err, &remote) || remote.Status != StatusInvalid {
		t.Errorf("unknown namespace: err = %v, want RemoteError{StatusInvalid}", err)
	}

	// A wrong protocol version must be refused before any session exists.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, frameHello, appendHello(nil, hello{Version: 99, NSID: 1})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn, 64+maxMsgLen)
	if err != nil || typ != frameWelcome {
		t.Fatalf("readFrame: typ=%d err=%v", typ, err)
	}
	w, err := parseWelcome(payload)
	if err != nil || w.Status != StatusInvalid {
		t.Fatalf("welcome = %+v, %v; want StatusInvalid", w, err)
	}
}

func TestWindowClamp(t *testing.T) {
	dev, _ := newTestDevice(t, 8, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 8})
	addr, _ := startServer(t, srv)

	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1, Window: 5000})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Depth() != 8 {
		t.Fatalf("granted window = %d, want clamp to 8", c.Depth())
	}
	for i := 0; i < 8; i++ {
		if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: ftl.LBA(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: 8}); !errors.Is(err, nvme.ErrQueueFull) {
		t.Fatalf("9th submit: err = %v, want ErrQueueFull", err)
	}
	if n, err := c.Ring(context.Background()); n != 8 || err != nil {
		t.Fatalf("Ring = %d, %v", n, err)
	}
}

// TestOverWindowBatchClosesSession sends a raw batch larger than the
// granted window: a protocol violation the server answers by dropping the
// connection rather than deadlocking on window tokens.
func TestOverWindowBatchClosesSession(t *testing.T) {
	dev, _ := newTestDevice(t, 9, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 4})
	addr, _ := startServer(t, srv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, frameHello, appendHello(nil, hello{Version: ProtocolVersion, NSID: 1, Window: 4})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(conn, 64+maxMsgLen); err != nil || typ != frameWelcome {
		t.Fatalf("handshake: typ=%d err=%v", typ, err)
	}
	cmds := make([]wireCmd, 5) // one beyond the granted window
	for i := range cmds {
		cmds[i] = wireCmd{Op: byte(nvme.OpTrim), LBA: uint64(i)}
	}
	if err := writeFrame(conn, frameBatch, appendBatch(nil, cmds)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := readFrame(conn, 1<<20); err == nil {
		t.Fatal("server answered an over-window batch; want connection close")
	}
}

// TestConnResetFault checks the injector-driven connection teardown: the
// batch completes device-side, then the session dies.
func TestConnResetFault(t *testing.T) {
	plan := faults.Plan{Rules: []faults.Rule{{Kind: faults.KindConnReset, Every: 1}}}
	dev, inj := newTestDevice(t, 10, 1, plan)
	srv := NewServer(dev, Config{Window: 4, Faults: inj})
	addr, stop := startServer(t, srv)

	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// First batch: served and answered (resets apply after the flush).
	if err := c.Trim(context.Background(), 1); err != nil {
		t.Fatalf("first command: %v", err)
	}
	// The connection is now dead; the next round trip must fail, and the
	// device must still have served the command that preceded the reset.
	if err := c.Trim(context.Background(), 2); err == nil {
		t.Fatal("second command succeeded across an injected conn reset")
	}
	stop()
	if got := inj.Injected(faults.KindConnReset); got == 0 {
		t.Error("no conn-reset faults recorded by the injector")
	}
	if st := dev.Namespaces()[0].Stats(); st.Trims != 1 {
		t.Errorf("trims = %d, want exactly the pre-reset command", st.Trims)
	}
}

func TestClientContextCancellation(t *testing.T) {
	dev, _ := newTestDevice(t, 11, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 4})
	addr, _ := startServer(t, srv)

	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ring(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ring under canceled ctx: err = %v, want context.Canceled", err)
	}
	// The stream may be mid-frame: the session is broken, not reusable.
	if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: 1}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Submit after break: err = %v, want ErrClientClosed", err)
	}
}

func TestGracefulShutdownRefusesNewSessions(t *testing.T) {
	dev, _ := newTestDevice(t, 12, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 4})
	addr, stop := startServer(t, srv)

	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(context.Background(), 3, make([]byte, c.BlockBytes())); err != nil {
		t.Fatal(err)
	}
	stop()
	if err := c.Trim(context.Background(), 3); err == nil {
		t.Error("command succeeded on a drained server")
	}
	c.Close()
	if _, err := Dial(context.Background(), addr, ClientConfig{NSID: 1}); err == nil {
		t.Error("Dial succeeded after shutdown")
	}
	if st := dev.Namespaces()[0].Stats(); st.Writes != 1 {
		t.Errorf("writes = %d after drain, want 1", st.Writes)
	}
}

func TestMaxSessions(t *testing.T) {
	dev, _ := newTestDevice(t, 13, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 4, MaxSessions: 2})
	addr, _ := startServer(t, srv)

	c1, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var remote *RemoteError
	if _, err := Dial(context.Background(), addr, ClientConfig{NSID: 1}); !errors.As(err, &remote) {
		t.Fatalf("3rd session: err = %v, want RemoteError", err)
	}
	// Freeing a slot re-admits.
	c1.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c3, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
		if err == nil {
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startFakeServer runs a peer that completes the handshake (512-byte
// blocks, window 4) and then answers every batch with reply's
// completions; a nil reply swallows batches without answering — a server
// stalled mid-Ring.
func startFakeServer(t *testing.T, reply func([]wireCmd) []wireCompletion) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				if _, _, err := readFrame(conn, 64); err != nil {
					return
				}
				w := welcome{Version: ProtocolVersion, Status: StatusOK, SessionID: 1, BlockBytes: 512, NumLBAs: 8, Window: 4}
				if err := writeFrame(conn, frameWelcome, appendWelcome(nil, w)); err != nil {
					return
				}
				if reply == nil {
					io.Copy(io.Discard, conn)
					return
				}
				for {
					typ, payload, err := readFrame(conn, 1<<20)
					if err != nil || typ != frameBatch {
						return
					}
					cmds, err := parseBatch(payload, 512)
					if err != nil {
						return
					}
					if writeFrame(conn, frameCompletions, appendCompletions(nil, reply(cmds))) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClientZeroFlag: a zero-flag read completion clears the caller's
// buffer, and a zero flag on a write or trim completion is a protocol
// violation that breaks the session.
func TestClientZeroFlag(t *testing.T) {
	addr := startFakeServer(t, func(cmds []wireCmd) []wireCompletion {
		comps := make([]wireCompletion, len(cmds))
		for i, cmd := range cmds {
			comps[i] = wireCompletion{Tag: cmd.Tag, Status: StatusOK, Zero: true}
		}
		return comps
	})
	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := bytes.Repeat([]byte{0xA5}, c.BlockBytes())
	if mapped, err := c.Read(context.Background(), 1, buf); err != nil || mapped {
		t.Fatalf("zero-flag read: mapped=%v err=%v", mapped, err)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatal("zero-flag read left stale bytes in the buffer")
	}
	for _, op := range []nvme.Opcode{nvme.OpWrite, nvme.OpTrim} {
		c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cmd := nvme.Command{Op: op, LBA: 2}
		if op == nvme.OpWrite {
			cmd.Buf = make([]byte, c.BlockBytes())
		}
		if err := c.Submit(cmd); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Ring(context.Background()); err == nil {
			t.Fatalf("%s completion with a zero flag accepted", op)
		}
		if err := c.Submit(nvme.Command{Op: nvme.OpTrim}); !errors.Is(err, ErrClientClosed) {
			t.Fatalf("Submit after a bad %s completion: err = %v, want ErrClientClosed", op, err)
		}
	}
}

// TestClientContextCancelMidRing: a ctx that ends while Ring is blocked
// on a server that never answers interrupts the round trip with the ctx's
// error and breaks the session, while a ctx that stays live across many
// round trips leaves the session intact.
func TestClientContextCancelMidRing(t *testing.T) {
	silent := startFakeServer(t, nil)
	cases := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"cancel", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			return ctx, cancel
		}, context.Canceled},
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}, context.DeadlineExceeded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Dial(context.Background(), silent, ClientConfig{NSID: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: 0}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			if _, err := c.Ring(ctx); !errors.Is(err, tc.want) {
				t.Fatalf("Ring on a stalled server: err = %v, want %v", err, tc.want)
			}
			if waited := time.Since(start); waited > 10*time.Second {
				t.Fatalf("Ring took %v to notice the ctx", waited)
			}
			if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: 1}); !errors.Is(err, ErrClientClosed) {
				t.Fatalf("Submit after interrupt: err = %v, want ErrClientClosed", err)
			}
		})
	}
	t.Run("live", func(t *testing.T) {
		dev, _ := newTestDevice(t, 15, 1, faults.Plan{})
		addr, _ := startServer(t, NewServer(dev, Config{Window: 4}))
		c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 100; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := c.Trim(ctx, ftl.LBA(i%8))
			cancel()
			if err != nil {
				t.Fatalf("round trip %d under a live ctx: %v", i, err)
			}
		}
	})
}

// TestProtocolVersionMismatch: a version-1 hello (the protocol before the
// zero-filled completion flag) is refused by both handshake entry points
// — a Server, and ReadHello as a routing frontend calls it — and the
// client sees a refusal or a handshake error, never a hang.
func TestProtocolVersionMismatch(t *testing.T) {
	v1 := hello{Version: 1, NSID: 1, Window: 4}
	t.Run("server", func(t *testing.T) {
		dev, _ := newTestDevice(t, 14, 1, faults.Plan{})
		srv := NewServer(dev, Config{Window: 4})
		addr, _ := startServer(t, srv)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		var remote *RemoteError
		if _, err := handshake(conn, v1); !errors.As(err, &remote) || remote.Status != StatusInvalid {
			t.Fatalf("v1 hello to a server: err = %v, want RemoteError{StatusInvalid}", err)
		}
		if got := srv.rejected.Load(); got != 1 {
			t.Errorf("rejected handshakes = %d, want 1", got)
		}
	})
	t.Run("frontend", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		readErr := make(chan error, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				readErr <- err
				return
			}
			// A routing frontend drops a connection whose hello it
			// cannot accept.
			defer conn.Close()
			_, err = ReadHello(conn, 10*time.Second)
			readErr <- err
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		_, err = handshake(conn, v1)
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("v1 hello to a frontend: err = %v, want a handshake error", err)
		}
		if err := <-readErr; err == nil || !strings.Contains(err.Error(), "protocol version 1") {
			t.Fatalf("ReadHello on a v1 hello: err = %v, want a version refusal", err)
		}
	})
}

// TestUnmappedReadCompletionCarriesNoData pins the elision on the wire:
// an OK read of an unmapped LBA comes back as a bare zero-flag completion,
// while a mapped read still carries its block.
func TestUnmappedReadCompletionCarriesNoData(t *testing.T) {
	dev, _ := newTestDevice(t, 16, 1, faults.Plan{})
	addr, _ := startServer(t, NewServer(dev, Config{Window: 4}))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	w := mustHandshake(t, conn, 1, 4)
	cmds := []wireCmd{
		{Op: byte(nvme.OpWrite), Tag: 1, LBA: 2, Data: make([]byte, w.BlockBytes)},
		{Op: byte(nvme.OpRead), Tag: 2, LBA: 2},
		{Op: byte(nvme.OpRead), Tag: 3, LBA: 3},
	}
	if err := writeFrame(conn, frameBatch, appendBatch(nil, cmds)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn, 1<<20)
	if err != nil || typ != frameCompletions {
		t.Fatalf("completions: typ=%d err=%v", typ, err)
	}
	comps, err := parseCompletions(payload)
	if err != nil || len(comps) != 3 {
		t.Fatalf("parseCompletions: %d comps, %v", len(comps), err)
	}
	if c := comps[1]; !c.Mapped || c.Zero || len(c.Data) != int(w.BlockBytes) {
		t.Errorf("mapped read: mapped=%v zero=%v %d data bytes, want a full block", c.Mapped, c.Zero, len(c.Data))
	}
	if c := comps[2]; c.Status != StatusOK || c.Mapped || !c.Zero || len(c.Data) != 0 {
		t.Errorf("unmapped read: %+v, want an OK zero-flag completion without data", c)
	}
	if want := 2 + 3*compWireOverhead + int(w.BlockBytes); len(payload) != want {
		t.Errorf("completions payload %d bytes, want %d (one block for the mapped read only)", len(payload), want)
	}
}

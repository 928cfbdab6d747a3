package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/nvme"
)

// pipeListener feeds pre-connected net.Pipe conns to a Server. net.Pipe
// supports deadlines and has no kernel buffering, which is exactly what a
// stalled-peer test needs: a write blocks until the peer reads or a
// deadline expires.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// dial hands the server half of a fresh pipe to the listener and returns
// the client half.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-time.After(10 * time.Second):
		t.Fatal("server never accepted the pipe")
	}
	return client
}

// mustHandshake performs the hello/welcome exchange on a raw conn.
func mustHandshake(t *testing.T, conn net.Conn, nsid, window int) welcome {
	t.Helper()
	w, err := handshake(conn, hello{Version: ProtocolVersion, NSID: uint16(nsid), Window: uint16(window)})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return w
}

// TestDrainWithStalledSessionPerShard is the multi-shard drain-deadlock
// regression: one session per engine shard fills its inflight window and
// then stops reading completions entirely. Without a drain write
// deadline, each session's writer blocks forever in conn.Write, window
// tokens are never released, the reader never reaches its closeSess item,
// and Shutdown hangs. With DrainGrace the writers go dead after the
// grace, tokens drain, and graceful shutdown completes well inside the
// Shutdown context.
func TestDrainWithStalledSessionPerShard(t *testing.T) {
	const (
		shards = 2
		window = 2
	)
	dev, _ := newTestDevice(t, 21, shards, faults.Plan{})
	srv := NewServer(dev, Config{
		Window:       window,
		EngineShards: shards,
		DrainGrace:   100 * time.Millisecond,
	})
	ln := newPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(context.Background(), ln) }()

	// One stalled session per shard: namespaces 1..shards map to distinct
	// shards. Each sends window trims (filling every token), then a
	// second batch the reader will hold while blocked on tokens — and
	// never reads a single completion frame back.
	conns := make([]net.Conn, 0, shards)
	for nsid := 1; nsid <= shards; nsid++ {
		conn := ln.dial(t)
		mustHandshake(t, conn, nsid, window)
		for batch := 0; batch < 2; batch++ {
			cmds := make([]wireCmd, window)
			for i := range cmds {
				cmds[i] = wireCmd{Op: byte(nvme.OpTrim), Tag: uint64(batch*window + i), LBA: uint64(i)}
			}
			// net.Pipe writes are synchronous: each succeeds only once the
			// server's reader consumes the frame, so after this loop both
			// batches are inside the server and the session's window is
			// exhausted.
			werr := make(chan error, 1)
			go func() { werr <- writeFrame(conn, frameBatch, appendBatch(nil, cmds)) }()
			select {
			case err := <-werr:
				if err != nil {
					t.Fatalf("ns %d batch %d: %v", nsid, batch, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("ns %d batch %d: server never read the frame", nsid, batch)
			}
		}
		conns = append(conns, conn)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	// Give the writers a moment to block on the first completions frame.
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown on stalled sessions: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("graceful drain took %v — writers were not unwedged by DrainGrace", elapsed)
	}
	// Every submitted command was still served device-side: the drain
	// discards undeliverable completions, never work.
	var trims uint64
	for _, ns := range dev.Namespaces() {
		trims += ns.Stats().Trims
	}
	if want := uint64(shards * 2 * window); trims != want {
		t.Errorf("device served %d trims, want %d", trims, want)
	}
}

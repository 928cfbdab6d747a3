package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// ClientConfig parameterizes a session handshake.
type ClientConfig struct {
	// NSID selects the namespace (1-based, as in Identify). Default 1.
	NSID int
	// Path selects the submission cost model charged server-side.
	Path nvme.Path
	// Window requests an inflight window; the server may clamp it. 0
	// accepts the server default.
	Window int
}

// ErrClientClosed reports use of a closed or broken client session.
var ErrClientClosed = errors.New("transport: client session closed")

// RemoteError is a handshake rejection, carrying the server's status and
// message.
type RemoteError struct {
	Status Status
	Msg    string
}

func (e *RemoteError) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	return "transport: remote error: " + e.Status.String()
}

// Client is one session against a remote Server, offering the same
// command surface as a local nvme.QueuePair: Submit commands, Ring the
// doorbell, drain Completions. Like a queue pair it is not safe for
// concurrent use — open one session per goroutine (sessions are cheap,
// and per-tenant isolation is the point of the protocol).
type Client struct {
	conn       net.Conn
	sessionID  uint32
	blockBytes int
	numLBAs    uint64
	window     int

	sq     []nvme.Command
	cq     []nvme.Completion
	broken bool
	closed bool

	// Ring scratch, recycled across round trips: the encoded batch frame,
	// the raw completions payload, and the decoded wire completions (whose
	// Data/Msg fields alias rbuf and are consumed before Ring returns).
	wcmds []wireCmd
	wbuf  []byte
	rbuf  []byte
	comps []wireCompletion
}

// Dial connects, performs the handshake, and returns a ready session.
func Dial(ctx context.Context, addr string, cfg ClientConfig) (*Client, error) {
	if cfg.NSID == 0 {
		cfg.NSID = 1
	}
	if cfg.NSID < 0 || cfg.NSID > 0xFFFF {
		return nil, fmt.Errorf("transport: namespace ID %d out of wire range", cfg.NSID)
	}
	if cfg.Window < 0 || cfg.Window > 0xFFFF {
		return nil, fmt.Errorf("transport: window %d out of wire range", cfg.Window)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	}
	w, err := handshake(conn, hello{
		Version: ProtocolVersion,
		NSID:    uint16(cfg.NSID),
		Path:    pathByte(cfg.Path),
		Window:  uint16(cfg.Window),
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return &Client{
		conn:       conn,
		sessionID:  w.SessionID,
		blockBytes: int(w.BlockBytes),
		numLBAs:    w.NumLBAs,
		window:     int(w.Window),
	}, nil
}

// handshake sends h and reads the welcome. A refusal surfaces as a
// *RemoteError; anything else that goes wrong is a handshake error.
func handshake(conn net.Conn, h hello) (welcome, error) {
	if err := writeFrame(conn, frameHello, appendHello(nil, h)); err != nil {
		return welcome{}, fmt.Errorf("transport: handshake: %w", err)
	}
	typ, payload, err := readFrame(conn, 64+maxMsgLen)
	if err != nil {
		return welcome{}, fmt.Errorf("transport: handshake: %w", err)
	}
	if typ != frameWelcome {
		return welcome{}, fmt.Errorf("transport: handshake: unexpected frame type %d", typ)
	}
	w, err := parseWelcome(payload)
	if err != nil {
		return welcome{}, fmt.Errorf("transport: handshake: %w", err)
	}
	if w.Status != StatusOK {
		return welcome{}, &RemoteError{Status: w.Status, Msg: w.Msg}
	}
	return w, nil
}

// SessionID returns the server-assigned session identifier.
func (c *Client) SessionID() uint32 { return c.sessionID }

// BlockBytes returns the device's logical block size.
func (c *Client) BlockBytes() int { return c.blockBytes }

// NumLBAs returns the bound namespace's size.
func (c *Client) NumLBAs() uint64 { return c.numLBAs }

// Depth returns the granted inflight window (the queue depth).
func (c *Client) Depth() int { return c.window }

// Submit enqueues a command without sending it. Reads need a Buf of one
// block to receive data; writes need a Buf of one block to supply it. The
// command's NS and Path fields are ignored — the session fixed both at
// handshake.
func (c *Client) Submit(cmd nvme.Command) error {
	if c.broken || c.closed {
		return ErrClientClosed
	}
	if len(c.sq) >= c.window {
		return nvme.ErrQueueFull
	}
	switch cmd.Op {
	case nvme.OpRead, nvme.OpWrite:
		if len(cmd.Buf) != c.blockBytes {
			return fmt.Errorf("transport: %s buffer is %d bytes, want one block (%d)",
				cmd.Op, len(cmd.Buf), c.blockBytes)
		}
	case nvme.OpTrim:
	default:
		return fmt.Errorf("transport: invalid opcode %d", cmd.Op)
	}
	c.sq = append(c.sq, cmd)
	return nil
}

// Ring sends the submitted batch and waits for its completions (the
// round trip is the doorbell plus the interrupt). It returns the number
// of commands processed. Read buffers are filled in place; completions
// carry the device's typed errors reconstructed from wire status, so
// errors.Is(err, nvme.ErrTimeout) etc. work transparently. A canceled
// ctx abandons the round trip and breaks the session (the stream can be
// mid-frame); subsequent calls return ErrClientClosed.
func (c *Client) Ring(ctx context.Context) (int, error) {
	if c.broken || c.closed {
		return 0, ErrClientClosed
	}
	if len(c.sq) == 0 {
		return 0, nil
	}
	c.wcmds = c.wcmds[:0]
	for _, cmd := range c.sq {
		wc := wireCmd{Op: byte(cmd.Op), Tag: cmd.Tag, LBA: uint64(cmd.LBA)}
		if cmd.Op == nvme.OpWrite {
			wc.Data = cmd.Buf
		}
		c.wcmds = append(c.wcmds, wc)
	}
	var comps []wireCompletion
	err := c.withCtx(ctx, func() error {
		frame, start := beginFrame(c.wbuf[:0], frameBatch)
		frame = appendBatch(frame, c.wcmds)
		frame = endFrame(frame, start)
		c.wbuf = frame
		if _, err := c.conn.Write(frame); err != nil {
			return err
		}
		typ, payload, err := readFrameInto(c.conn, c.rbuf, maxCompletionsPayload(c.window, c.blockBytes))
		c.rbuf = payload
		if err != nil {
			return err
		}
		if typ != frameCompletions {
			return fmt.Errorf("transport: unexpected frame type %d, want completions", typ)
		}
		comps, err = parseCompletionsInto(c.comps[:0], payload)
		c.comps = comps
		return err
	})
	if err != nil {
		c.broken = true
		c.conn.Close()
		return 0, err
	}
	if len(comps) != len(c.sq) {
		c.broken = true
		c.conn.Close()
		return 0, fmt.Errorf("transport: %d completions for a batch of %d", len(comps), len(c.sq))
	}
	// Completions arrive in submission order; tags are echoed verbatim.
	for i, cp := range comps {
		cmd := c.sq[i]
		if cp.Tag != cmd.Tag {
			c.broken = true
			c.conn.Close()
			return 0, fmt.Errorf("transport: completion %d echoes tag %d, want %d", i, cp.Tag, cmd.Tag)
		}
		if cp.Zero && cmd.Op != nvme.OpRead {
			c.broken = true
			c.conn.Close()
			return 0, fmt.Errorf("transport: zero flag on a %s completion", cmd.Op)
		}
		comp := nvme.Completion{Tag: cp.Tag, Mapped: cp.Mapped, Err: errorOf(cp.Status, cp.Msg)}
		if cmd.Op == nvme.OpRead && cp.Status == StatusOK {
			switch {
			case cp.Zero:
				clear(cmd.Buf)
			case len(cp.Data) != c.blockBytes:
				c.broken = true
				c.conn.Close()
				return 0, fmt.Errorf("transport: read completion carries %d bytes, want %d", len(cp.Data), c.blockBytes)
			default:
				copy(cmd.Buf, cp.Data)
			}
		}
		c.cq = append(c.cq, comp)
	}
	n := len(c.sq)
	c.sq = c.sq[:0]
	return n, nil
}

// Completions drains and returns the completion queue.
func (c *Client) Completions() []nvme.Completion {
	out := c.cq
	c.cq = nil
	return out
}

// Read services one block read over the wire. The mapped flag reports
// whether flash was touched, exactly as nvme.Device.Read does.
func (c *Client) Read(ctx context.Context, lba ftl.LBA, buf []byte) (mapped bool, err error) {
	comp, err := c.roundTrip(ctx, nvme.Command{Op: nvme.OpRead, LBA: lba, Buf: buf})
	if err != nil {
		return false, err
	}
	return comp.Mapped, comp.Err
}

// Write services one block write over the wire.
func (c *Client) Write(ctx context.Context, lba ftl.LBA, data []byte) error {
	comp, err := c.roundTrip(ctx, nvme.Command{Op: nvme.OpWrite, LBA: lba, Buf: data})
	if err != nil {
		return err
	}
	return comp.Err
}

// Trim deallocates one block over the wire.
func (c *Client) Trim(ctx context.Context, lba ftl.LBA) error {
	comp, err := c.roundTrip(ctx, nvme.Command{Op: nvme.OpTrim, LBA: lba})
	if err != nil {
		return err
	}
	return comp.Err
}

// roundTrip runs one command as its own batch. It requires an empty
// submission queue (mixing Submit with the convenience calls would
// conflate two batching disciplines).
func (c *Client) roundTrip(ctx context.Context, cmd nvme.Command) (nvme.Completion, error) {
	if len(c.sq) != 0 {
		return nvme.Completion{}, errors.New("transport: convenience call with commands already submitted")
	}
	if err := c.Submit(cmd); err != nil {
		return nvme.Completion{}, err
	}
	if _, err := c.Ring(ctx); err != nil {
		return nvme.Completion{}, err
	}
	comps := c.Completions()
	return comps[0], nil
}

// withCtx runs fn under ctx: a deadline maps onto the connection, and
// cancellation interrupts blocked I/O by expiring it. After interruption
// the ctx error wins over the (induced) I/O error. The interrupt is a
// context.AfterFunc registration, so a cancelable ctx costs no goroutine
// per round trip.
func (c *Client) withCtx(ctx context.Context, fn func() error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		c.conn.SetDeadline(deadline)
		defer c.conn.SetDeadline(time.Time{})
	}
	if ctx.Done() == nil {
		return fn()
	}
	stop := context.AfterFunc(ctx, func() { c.conn.SetDeadline(time.Now()) })
	err := fn()
	if !stop() {
		// ctx ended while fn ran, so the interrupt has fired (or is about
		// to): the connection is expired and the round trip is ctx's.
		return ctx.Err()
	}
	if hasDeadline && errors.Is(err, os.ErrDeadlineExceeded) {
		// The connection deadline is ctx's own, and it can expire a hair
		// before ctx's timer marks the ctx done.
		return context.DeadlineExceeded
	}
	return err
}

// Close ends the session gracefully (a bye frame, then the connection).
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if !c.broken {
		_ = writeFrame(c.conn, frameBye, nil)
	}
	return c.conn.Close()
}

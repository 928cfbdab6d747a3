package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// ErrServerClosed is returned by Serve after a graceful drain (Shutdown or
// context cancellation), mirroring net/http.ErrServerClosed.
var ErrServerClosed = errors.New("transport: server closed")

// Config tunes a Server. The zero value gets sensible defaults.
type Config struct {
	// Window bounds each session's inflight commands (granted windows
	// clamp client requests to it). Default 64, max 4096.
	Window int
	// MaxSessions caps concurrently open sessions; further handshakes are
	// rejected with StatusShutdown-like refusal (StatusInvalid + message).
	// Default 256.
	MaxSessions int
	// HandshakeTimeout bounds how long a fresh connection may take to
	// send its hello. Default 10s.
	HandshakeTimeout time.Duration
	// EngineShards sets how many engine goroutines serve command batches.
	// Sessions are assigned to shards by namespace ID, so one namespace's
	// traffic always executes in arrival order on one shard, while
	// distinct namespaces decode, execute and encode concurrently.
	// Device execution itself stays serialized under the device mutex
	// (one simulated device has one virtual clock), with clock ownership
	// handed between shards via Clock.Handoff; the parallel win is
	// everything outside that critical section — frame decode, wire
	// encode and socket I/O. Default min(GOMAXPROCS, 4), max 64.
	EngineShards int
	// DrainGrace bounds how long a graceful drain waits for in-flight
	// completion frames to reach slow clients: beginDrain applies it as a
	// write deadline on every open session, so a peer that stopped
	// reading its socket cannot hold a shard's sessions (and Shutdown)
	// hostage. Default 5s.
	DrainGrace time.Duration
	// Faults, when non-nil, drives KindConnReset connection faults: after
	// a served batch the injector may doom the session's connection,
	// modeling NVMe-oF link loss. Typically the same injector threaded
	// through the device (fault schedules stay on one world's streams).
	Faults *faults.Injector
}

func (c *Config) fillDefaults() {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Window > 4096 {
		c.Window = 4096
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	if c.EngineShards <= 0 {
		c.EngineShards = runtime.GOMAXPROCS(0)
		if c.EngineShards > 4 {
			c.EngineShards = 4
		}
	}
	if c.EngineShards > 64 {
		c.EngineShards = 64
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
}

// batchBuffers is the pooled per-batch working set of the wire path: the
// raw frame payload, its decoded wire commands, the device commands and
// completions, the encoded wire completions, and the read-data blocks.
// One set cycles reader → engine → writer and returns to the pool only
// after its completions frame is on the wire (recycle-after-write), so
// the steady-state batch path allocates nothing.
type batchBuffers struct {
	payload []byte
	wcmds   []wireCmd
	cmds    []nvme.Command
	comps   []nvme.Completion
	wcs     []wireCompletion
	// blocks are read-data buffers of one block each, owned by this set
	// and reused in place batch after batch.
	blocks [][]byte
}

// block returns the i-th read buffer, allocating it on first use.
func (bb *batchBuffers) block(i, blockBytes int) []byte {
	for len(bb.blocks) <= i {
		bb.blocks = append(bb.blocks, make([]byte, blockBytes))
	}
	return bb.blocks[i]
}

// engineItem is one unit of work funneled into a shard's engine loop:
// exactly one of open, closeSess, or a command batch.
type engineItem struct {
	sess      *session
	open      bool
	closeSess bool
	bb        *batchBuffers
	// stalled marks a batch whose window-token acquisition had to block —
	// the observable edge of backpressure.
	stalled bool
}

// outBatch is one completions frame queued to a session's writer, carrying
// its batch set until the frame is written and the set can be recycled.
type outBatch struct {
	bb *batchBuffers
	// reset dooms the connection after this frame (conn-reset fault).
	reset bool
}

// session is one connected tenant.
type session struct {
	id     uint32
	nsid   int
	ns     *nvme.Namespace
	path   nvme.Path
	conn   net.Conn
	window int
	// tokens is the inflight window: one token per submitted command,
	// released by the writer after the completion is on the wire.
	tokens chan struct{}
	// out carries completions from the engine to the writer. Capacity =
	// window batches, so the engine never blocks on a slow client.
	out        chan outBatch
	writerDone chan struct{}
	// wbuf is the writer's completions-frame scratch, grown to the
	// session's high-water mark and then reused.
	wbuf []byte
}

// shardStats is one engine shard's counter block, owned by its goroutine
// and read at Flush after quiesce.
type shardStats struct {
	batches  uint64
	commands uint64
}

// Server exposes one *nvme.Device over TCP. Create with NewServer, run
// with Serve, stop with Shutdown (or by canceling Serve's context).
//
// The device must not be driven by anyone else while the server runs: the
// engine shards take over the device's virtual-clock ownership for the
// duration of Serve (passing it between themselves under devMu) and hand
// it back when Serve returns.
type Server struct {
	dev *nvme.Device
	cfg Config
	reg *obs.Registry

	// shards holds one work channel per engine shard; sessions map to a
	// shard by namespace ID, keeping per-namespace command order.
	shards []chan engineItem
	done   chan struct{}

	// devMu serializes device execution (and engine-owned counters)
	// across shards. Every critical section ends with Clock.Handoff so
	// the clock's race-build owner guard follows the lock.
	devMu sync.Mutex

	// batchPool recycles batch buffer sets across sessions and shards.
	batchPool sync.Pool

	mu       sync.Mutex
	ln       net.Listener
	sessions map[uint32]*session
	nextID   uint32
	draining bool
	serving  bool

	// st is engine-owned (under devMu); read at Flush after quiesce.
	st serverStats
	// shardSt is per-shard, each entry owned by its engine goroutine.
	shardSt  []shardStats
	rejected atomic.Uint64
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
}

// NewServer wraps a device. The device's world registry (if any) receives
// transport_* series at Flush and transport.* trace events live.
func NewServer(dev *nvme.Device, cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		dev:      dev,
		cfg:      cfg,
		reg:      dev.World().Obs,
		shards:   make([]chan engineItem, cfg.EngineShards),
		shardSt:  make([]shardStats, cfg.EngineShards),
		done:     make(chan struct{}),
		sessions: map[uint32]*session{},
	}
	for i := range s.shards {
		s.shards[i] = make(chan engineItem, 64)
	}
	s.batchPool.New = func() any { return &batchBuffers{} }
	if s.reg != nil {
		s.registerObs(s.reg)
	}
	return s
}

// getBatch takes a recycled batch set from the pool.
func (s *Server) getBatch() *batchBuffers {
	return s.batchPool.Get().(*batchBuffers)
}

// putBatch returns a batch set to the pool, resetting lengths but keeping
// every backing array (payload, slices, read blocks) for reuse.
func (s *Server) putBatch(bb *batchBuffers) {
	bb.wcmds = bb.wcmds[:0]
	bb.cmds = bb.cmds[:0]
	bb.comps = bb.comps[:0]
	bb.wcs = bb.wcs[:0]
	s.batchPool.Put(bb)
}

// shardOf maps a session's namespace onto its engine shard.
func (s *Server) shardOf(nsid int) chan engineItem {
	idx := 0
	if nsid > 0 {
		idx = (nsid - 1) % len(s.shards)
	}
	return s.shards[idx]
}

// Serve accepts sessions on ln until ctx is canceled or Shutdown is
// called, then drains inflight commands and returns ErrServerClosed. Any
// other listener error is returned verbatim. Serve may be called once.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	if s.serving {
		s.mu.Unlock()
		return errors.New("transport: Serve called twice")
	}
	s.serving = true
	s.ln = ln
	draining := s.draining
	s.mu.Unlock()
	if draining {
		ln.Close()
		close(s.done)
		return ErrServerClosed
	}

	// The engine shards become the device's clock owners for the run
	// (ownership passes between them with devMu; see engine).
	s.dev.Clock().Handoff()
	var engines sync.WaitGroup
	for i := range s.shards {
		engines.Add(1)
		go func(idx int) {
			defer engines.Done()
			s.engine(idx)
		}(i)
	}

	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.beginDrain()
		case <-stopWatch:
		}
	}()

	var wg sync.WaitGroup
	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if !draining {
				acceptErr = err
			}
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(conn)
		}()
	}
	close(stopWatch)
	s.beginDrain()
	wg.Wait()
	for _, work := range s.shards {
		close(work)
	}
	engines.Wait()
	close(s.done)
	if acceptErr != nil {
		return acceptErr
	}
	return ErrServerClosed
}

// beginDrain stops accepting and kicks every session: the read deadline
// unblocks the reader immediately, and the write deadline gives in-flight
// completion frames DrainGrace to flush — after that the writer goes dead
// and keeps draining tokens, so a peer that stopped reading cannot wedge
// a shard (or graceful Shutdown) behind a blocked socket write.
func (s *Server) beginDrain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	ln := s.ln
	kick := make([]*session, 0, len(s.sessions))
	for _, se := range s.sessions {
		kick = append(kick, se)
	}
	grace := s.cfg.DrainGrace
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	now := time.Now()
	for _, se := range kick {
		// Unblock the reader; queued batches drain through the engine.
		se.conn.SetReadDeadline(now)
		se.conn.SetWriteDeadline(now.Add(grace))
	}
}

// Shutdown gracefully drains the server: no new sessions, inflight
// commands complete, completions flush, then Serve returns. If ctx expires
// first, remaining connections are force-closed and ctx's error returned.
// Shutdown before Serve marks the server closed; a later Serve returns
// immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	started := s.serving
	s.mu.Unlock()
	s.beginDrain()
	if !started {
		return nil
	}
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for _, se := range s.sessions {
		se.conn.Close()
	}
	s.mu.Unlock()
	<-s.done
	return ctx.Err()
}

// reject answers a failed handshake and closes the connection.
func (s *Server) reject(conn net.Conn, st Status, msg string) {
	s.rejected.Add(1)
	payload := appendWelcome(nil, welcome{Version: ProtocolVersion, Status: st, Msg: msg})
	_ = writeFrame(conn, frameWelcome, payload)
}

// serveConn runs one session: handshake, then the read loop feeding the
// session's engine shard, with a writer goroutine flushing completions
// back.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	typ, payload, err := readFrame(conn, 64)
	if err != nil || typ != frameHello {
		s.rejected.Add(1)
		return
	}
	h, err := parseHello(payload)
	if err != nil {
		s.reject(conn, StatusInvalid, err.Error())
		return
	}
	if h.Version != ProtocolVersion {
		s.reject(conn, StatusInvalid, fmt.Sprintf("transport: protocol version %d, want %d", h.Version, ProtocolVersion))
		return
	}
	path, err := pathOf(h.Path)
	if err != nil {
		s.reject(conn, StatusInvalid, err.Error())
		return
	}
	ns, ok := s.dev.NamespaceByID(int(h.NSID))
	if !ok {
		s.reject(conn, StatusInvalid, fmt.Sprintf("transport: no namespace %d", h.NSID))
		return
	}
	window := int(h.Window)
	if window <= 0 || window > s.cfg.Window {
		window = s.cfg.Window
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(conn, StatusShutdown, "transport: server is draining")
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.reject(conn, StatusInvalid, fmt.Sprintf("transport: session limit %d reached", s.cfg.MaxSessions))
		return
	}
	s.nextID++
	se := &session{
		id:         s.nextID,
		nsid:       ns.ID,
		ns:         ns,
		path:       path,
		conn:       conn,
		window:     window,
		tokens:     make(chan struct{}, window),
		out:        make(chan outBatch, window),
		writerDone: make(chan struct{}),
	}
	s.sessions[se.id] = se
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.sessions, se.id)
		s.mu.Unlock()
	}()

	blockBytes := s.dev.BlockBytes()
	wpayload := appendWelcome(nil, welcome{
		Version:    ProtocolVersion,
		Status:     StatusOK,
		SessionID:  se.id,
		BlockBytes: uint32(blockBytes),
		NumLBAs:    ns.NumLBAs,
		Window:     uint16(window),
	})
	if err := writeFrame(conn, frameWelcome, wpayload); err != nil {
		return
	}

	work := s.shardOf(se.nsid)
	work <- engineItem{sess: se, open: true}
	go s.writeLoop(se)
	maxPayload := maxBatchPayload(window, blockBytes)
	conn.SetReadDeadline(time.Time{})
	for {
		bb := s.getBatch()
		typ, payload, err := readFrameInto(conn, bb.payload, maxPayload)
		bb.payload = payload
		if err != nil || typ != frameBatch {
			// frameBye and malformed streams both end the session.
			s.putBatch(bb)
			break
		}
		s.bytesIn.Add(uint64(frameHeaderLen + len(payload)))
		bb.wcmds, err = parseBatchInto(bb.wcmds[:0], payload, blockBytes)
		if err != nil || len(bb.wcmds) == 0 || len(bb.wcmds) > window {
			s.putBatch(bb)
			break
		}
		bb.cmds = bb.cmds[:0]
		reads := 0
		for _, wc := range bb.wcmds {
			cmd := nvme.Command{
				Op:     nvme.Opcode(wc.Op),
				NS:     se.ns,
				Path:   se.path,
				LBA:    lbaOf(wc.LBA),
				Tag:    wc.Tag,
				Origin: uint64(se.id),
			}
			switch cmd.Op {
			case nvme.OpWrite:
				cmd.Buf = wc.Data
			case nvme.OpRead:
				cmd.Buf = bb.block(reads, blockBytes)
				reads++
			}
			bb.cmds = append(bb.cmds, cmd)
		}
		// Backpressure: one window token per command, released only after
		// its completion is written back. When the window is exhausted
		// this blocks, which stalls the read loop and ultimately the
		// client's TCP stream.
		stalled := false
		for range bb.cmds {
			select {
			case se.tokens <- struct{}{}:
			default:
				stalled = true
				se.tokens <- struct{}{}
			}
		}
		work <- engineItem{sess: se, bb: bb, stalled: stalled}
	}
	// All of this session's batches precede this item on the shard's work
	// channel, so the engine closes se.out only after serving them.
	work <- engineItem{sess: se, closeSess: true}
	<-se.writerDone
}

// writeLoop flushes completions for one session, encoding each frame into
// the session's recycled scratch and returning the batch set to the pool
// once the frame is on the wire. After a write error it keeps draining
// (and releasing window tokens) so the reader and engine never wedge on a
// dead client.
func (s *Server) writeLoop(se *session) {
	defer close(se.writerDone)
	dead := false
	for ob := range se.out {
		bb := ob.bb
		n := len(bb.wcs)
		if !dead {
			frame, start := beginFrame(se.wbuf[:0], frameCompletions)
			frame = appendCompletions(frame, bb.wcs)
			frame = endFrame(frame, start)
			se.wbuf = frame
			if _, err := se.conn.Write(frame); err != nil {
				dead = true
			} else {
				s.bytesOut.Add(uint64(len(frame)))
			}
		}
		s.putBatch(bb)
		for i := 0; i < n; i++ {
			<-se.tokens
		}
		if ob.reset && !dead {
			// Injected link loss: the batch completed device-side but the
			// session dies under the client.
			se.conn.Close()
			dead = true
		}
	}
}

// engine is one shard's command loop. Sessions land on a shard by
// namespace, so each namespace's commands execute in arrival order;
// device execution itself is serialized across shards by devMu (one
// simulated device, one virtual clock), and every critical section ends
// with Clock.Handoff so clock ownership follows the lock. Wire encoding
// happens outside the lock — that, plus per-shard decode and socket I/O,
// is the multi-core win.
func (s *Server) engine(idx int) {
	work := s.shards[idx]
	sst := &s.shardSt[idx]
	for it := range work {
		switch {
		case it.open:
			s.devMu.Lock()
			s.st.sessions++
			s.st.active++
			if s.st.active > s.st.activeMax {
				s.st.activeMax = s.st.active
			}
			s.reg.Emit(uint64(s.dev.Clock().Now()), EvSession, int64(it.sess.id), 1, int64(it.sess.nsid))
			s.dev.Clock().Handoff()
			s.devMu.Unlock()
		case it.closeSess:
			s.devMu.Lock()
			s.st.active--
			s.reg.Emit(uint64(s.dev.Clock().Now()), EvSession, int64(it.sess.id), 0, int64(it.sess.nsid))
			s.dev.Clock().Handoff()
			s.devMu.Unlock()
			close(it.sess.out)
		default:
			bb := it.bb
			reset := false
			s.devMu.Lock()
			if it.stalled {
				s.st.overloads++
				s.reg.Emit(uint64(s.dev.Clock().Now()), EvOverload, int64(it.sess.id), int64(it.sess.window), int64(len(bb.cmds)))
			}
			s.st.batches++
			s.st.commands += uint64(len(bb.cmds))
			bb.comps = s.dev.DoBatch(nil, bb.cmds, bb.comps[:0])
			if hit, _ := s.cfg.Faults.Decide(faults.KindConnReset, uint64(it.sess.id)); hit {
				reset = true
				s.st.connResets++
			}
			s.dev.Clock().Handoff()
			s.devMu.Unlock()
			sst.batches++
			sst.commands += uint64(len(bb.cmds))
			bb.wcs = bb.wcs[:0]
			for i, cp := range bb.comps {
				st, msg := statusOf(cp.Err)
				wc := wireCompletion{Tag: cp.Tag, Status: st, Mapped: cp.Mapped, Msg: msg}
				if st == StatusOK && bb.cmds[i].Op == nvme.OpRead {
					// An OK unmapped read is all zeros by device contract
					// (ftl.ReadLBA); one flag bit says so instead of a block.
					if cp.Mapped {
						wc.Data = bb.cmds[i].Buf
					} else {
						wc.Zero = true
					}
				}
				bb.wcs = append(bb.wcs, wc)
			}
			it.sess.out <- outBatch{bb: bb, reset: reset}
		}
	}
}

package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// ProtocolVersion is negotiated in the hello/welcome handshake; a server
// refuses clients speaking a different version. Version 2 introduced the
// zero-filled completion flag (flagZero): a version-1 peer would read a
// data-less unmapped read as a short payload, so it is refused outright.
const ProtocolVersion = 2

// Frame types. Every frame on the wire is a 4-byte big-endian payload
// length, a 1-byte type, then the payload.
const (
	frameHello       byte = 1 // client → server: session handshake
	frameWelcome     byte = 2 // server → client: handshake reply
	frameBatch       byte = 3 // client → server: command batch (the doorbell)
	frameCompletions byte = 4 // server → client: completions for one batch
	frameBye         byte = 5 // client → server: graceful session close
)

// Completion flag bits. Any other bit set is a malformed completion.
const (
	// flagMapped reports that a read touched flash.
	flagMapped byte = 1 << 0
	// flagZero marks an OK read of an unmapped block: the device
	// zero-fills those (ftl.ReadLBA), so the completion omits the data
	// and the client clears the caller's buffer instead.
	flagZero byte = 1 << 1
)

// frameHeaderLen is the fixed prefix of every frame.
const frameHeaderLen = 5

// maxMsgLen bounds the error-detail string carried in welcome frames and
// completions; longer messages are truncated at encode time.
const maxMsgLen = 512

// Status is the wire form of a command or handshake outcome. The client
// maps statuses back to the device's typed errors so errors.Is works
// across the network.
type Status uint8

const (
	// StatusOK is success.
	StatusOK Status = iota
	// StatusInvalid rejects a malformed command or handshake.
	StatusInvalid
	// StatusOutOfRange maps nvme.ErrOutOfRange.
	StatusOutOfRange
	// StatusTimeout maps nvme.ErrTimeout.
	StatusTimeout
	// StatusAborted maps nvme.ErrAborted.
	StatusAborted
	// StatusMediaFailure maps nvme.ErrMediaFailure.
	StatusMediaFailure
	// StatusReadOnly maps nvme.ErrReadOnly.
	StatusReadOnly
	// StatusShutdown rejects a handshake while the server is draining.
	StatusShutdown
	// StatusError carries any other device error as its message text.
	StatusError
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusInvalid:
		return "invalid"
	case StatusOutOfRange:
		return "out-of-range"
	case StatusTimeout:
		return "timeout"
	case StatusAborted:
		return "aborted"
	case StatusMediaFailure:
		return "media-failure"
	case StatusReadOnly:
		return "read-only"
	case StatusShutdown:
		return "shutdown"
	default:
		return "error"
	}
}

// statusOf maps a completion error onto the wire.
func statusOf(err error) (Status, string) {
	switch {
	case err == nil:
		return StatusOK, ""
	case errors.Is(err, nvme.ErrOutOfRange):
		return StatusOutOfRange, err.Error()
	case errors.Is(err, nvme.ErrTimeout):
		return StatusTimeout, err.Error()
	case errors.Is(err, nvme.ErrAborted):
		return StatusAborted, err.Error()
	case errors.Is(err, nvme.ErrMediaFailure):
		return StatusMediaFailure, err.Error()
	case errors.Is(err, nvme.ErrReadOnly):
		return StatusReadOnly, err.Error()
	default:
		return StatusError, err.Error()
	}
}

// statusError is a reconstructed remote error: it prints the server's
// message and unwraps to the sentinel matching its wire status.
type statusError struct {
	sentinel error
	msg      string
}

func (e *statusError) Error() string { return e.msg }
func (e *statusError) Unwrap() error { return e.sentinel }

// errorOf reconstructs a completion error from its wire form.
func errorOf(st Status, msg string) error {
	if st == StatusOK {
		return nil
	}
	var sentinel error
	switch st {
	case StatusOutOfRange:
		sentinel = nvme.ErrOutOfRange
	case StatusTimeout:
		sentinel = nvme.ErrTimeout
	case StatusAborted:
		sentinel = nvme.ErrAborted
	case StatusMediaFailure:
		sentinel = nvme.ErrMediaFailure
	case StatusReadOnly:
		sentinel = nvme.ErrReadOnly
	}
	if msg == "" {
		msg = "transport: remote error: " + st.String()
	}
	if sentinel == nil {
		return errors.New(msg)
	}
	return &statusError{sentinel: sentinel, msg: msg}
}

// hello is the client half of the handshake.
type hello struct {
	Version byte
	NSID    uint16
	Path    byte // 0 = direct, 1 = host-fs
	Window  uint16
}

// welcome is the server half of the handshake.
type welcome struct {
	Version    byte
	Status     Status
	Msg        string
	SessionID  uint32
	BlockBytes uint32
	NumLBAs    uint64
	Window     uint16 // granted inflight window (may clamp the request)
}

// wireCmd is one command on the wire. Data carries the write payload (one
// block) and must be empty for reads and trims.
type wireCmd struct {
	Op   byte
	Tag  uint64
	LBA  uint64
	Data []byte
}

// wireCompletion is one completion on the wire. Data carries the read
// payload when present; Zero stands in for an all-zero payload and
// requires an OK status and empty Data.
type wireCompletion struct {
	Tag    uint64
	Status Status
	Mapped bool
	Zero   bool
	Msg    string
	Data   []byte
}

// errMalformed is the base error for undecodable payloads.
var errMalformed = errors.New("transport: malformed frame")

// errFrameTooLarge reports a frame beyond the receiver's negotiated bound;
// the receiving side closes the connection rather than allocate for it.
var errFrameTooLarge = errors.New("transport: frame exceeds negotiated size")

// writeFrame writes one [len][type][payload] frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	hdr := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	_, err := w.Write(append(hdr, payload...))
	return err
}

// beginFrame appends a frame header for typ to dst and returns the buffer
// plus the payload start offset; endFrame backfills the length once the
// payload has been appended in place. Together they encode a whole frame
// into a caller-recycled buffer — the zero-copy, zero-alloc counterpart
// of writeFrame for the steady-state completion path.
func beginFrame(dst []byte, typ byte) ([]byte, int) {
	dst = append(dst, 0, 0, 0, 0, typ)
	return dst, len(dst)
}

// endFrame backfills the payload length of the frame started at
// payloadStart and returns the finished frame buffer.
func endFrame(dst []byte, payloadStart int) []byte {
	binary.BigEndian.PutUint32(dst[payloadStart-frameHeaderLen:], uint32(len(dst)-payloadStart))
	return dst
}

// readFrame reads the next frame, refusing payloads beyond maxPayload. The
// returned payload is freshly allocated: decoded messages may retain
// sub-slices of it.
func readFrame(r io.Reader, maxPayload int) (typ byte, payload []byte, err error) {
	return readFrameInto(r, nil, maxPayload)
}

// readFrameInto is readFrame with a caller-recycled payload buffer: when
// buf has capacity for the payload it is reused in place (the returned
// payload aliases it), otherwise a larger buffer is allocated. The caller
// keeps the returned slice as its scratch for the next call, so the
// buffer grows to the session's high-water mark and then stops
// allocating. On error the scratch is returned unchanged.
func readFrameInto(r io.Reader, buf []byte, maxPayload int) (typ byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if int(n) > maxPayload {
		return 0, buf, fmt.Errorf("%w: %d > %d", errFrameTooLarge, n, maxPayload)
	}
	if uint64(cap(buf)) < uint64(n) {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, payload, err
	}
	return hdr[4], payload, nil
}

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// cursor decodes a payload left to right, latching the first error.
type cursor struct {
	p   []byte
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.p) < n {
		c.err = fmt.Errorf("%w: truncated", errMalformed)
		return nil
	}
	out := c.p[:n]
	c.p = c.p[n:]
	return out
}

func (c *cursor) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.p) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errMalformed, len(c.p))
	}
	return nil
}

func appendHello(b []byte, h hello) []byte {
	b = append(b, h.Version)
	b = appendU16(b, h.NSID)
	b = append(b, h.Path)
	return appendU16(b, h.Window)
}

func parseHello(p []byte) (hello, error) {
	c := cursor{p: p}
	h := hello{Version: c.u8(), NSID: c.u16(), Path: c.u8(), Window: c.u16()}
	return h, c.done()
}

func truncMsg(msg string) string {
	if len(msg) > maxMsgLen {
		return msg[:maxMsgLen]
	}
	return msg
}

func appendWelcome(b []byte, w welcome) []byte {
	msg := truncMsg(w.Msg)
	b = append(b, w.Version, byte(w.Status))
	b = appendU16(b, uint16(len(msg)))
	b = append(b, msg...)
	b = appendU32(b, w.SessionID)
	b = appendU32(b, w.BlockBytes)
	b = appendU64(b, w.NumLBAs)
	return appendU16(b, w.Window)
}

func parseWelcome(p []byte) (welcome, error) {
	c := cursor{p: p}
	w := welcome{Version: c.u8(), Status: Status(c.u8())}
	w.Msg = string(c.take(int(c.u16())))
	w.SessionID = c.u32()
	w.BlockBytes = c.u32()
	w.NumLBAs = c.u64()
	w.Window = c.u16()
	return w, c.done()
}

func appendBatch(b []byte, cmds []wireCmd) []byte {
	b = appendU16(b, uint16(len(cmds)))
	for _, cmd := range cmds {
		b = append(b, cmd.Op)
		b = appendU64(b, cmd.Tag)
		b = appendU64(b, cmd.LBA)
		b = appendU32(b, uint32(len(cmd.Data)))
		b = append(b, cmd.Data...)
	}
	return b
}

// parseBatch decodes a command batch, enforcing the semantic shape the
// server relies on: writes carry exactly blockBytes of data, reads and
// trims carry none, and opcodes are known.
func parseBatch(p []byte, blockBytes int) ([]wireCmd, error) {
	cmds, err := parseBatchInto(nil, p, blockBytes)
	if err != nil {
		return nil, err
	}
	return cmds, nil
}

// parseBatchInto is parseBatch appending into a recycled slice: the
// server's read loop passes its batch set's wcmds[:0] so steady-state
// decoding allocates nothing. Decoded Data fields alias p.
func parseBatchInto(cmds []wireCmd, p []byte, blockBytes int) ([]wireCmd, error) {
	c := cursor{p: p}
	n := int(c.u16())
	for i := 0; i < n; i++ {
		cmd := wireCmd{Op: c.u8(), Tag: c.u64(), LBA: c.u64()}
		cmd.Data = c.take(int(c.u32()))
		if c.err != nil {
			break
		}
		switch nvme.Opcode(cmd.Op) {
		case nvme.OpWrite:
			if len(cmd.Data) != blockBytes {
				return cmds, fmt.Errorf("%w: write of %d bytes, want %d", errMalformed, len(cmd.Data), blockBytes)
			}
		case nvme.OpRead, nvme.OpTrim:
			if len(cmd.Data) != 0 {
				return cmds, fmt.Errorf("%w: %s carries %d data bytes", errMalformed, nvme.Opcode(cmd.Op), len(cmd.Data))
			}
		default:
			return cmds, fmt.Errorf("%w: unknown opcode %d", errMalformed, cmd.Op)
		}
		cmds = append(cmds, cmd)
	}
	if err := c.done(); err != nil {
		return cmds, err
	}
	return cmds, nil
}

func appendCompletions(b []byte, comps []wireCompletion) []byte {
	b = appendU16(b, uint16(len(comps)))
	for _, cp := range comps {
		msg := truncMsg(cp.Msg)
		b = appendU64(b, cp.Tag)
		b = append(b, byte(cp.Status))
		var flags byte
		if cp.Mapped {
			flags |= flagMapped
		}
		if cp.Zero {
			flags |= flagZero
		}
		b = append(b, flags)
		b = appendU16(b, uint16(len(msg)))
		b = append(b, msg...)
		b = appendU32(b, uint32(len(cp.Data)))
		b = append(b, cp.Data...)
	}
	return b
}

func parseCompletions(p []byte) ([]wireCompletion, error) {
	comps, err := parseCompletionsInto(nil, p)
	if err != nil {
		return nil, err
	}
	return comps, nil
}

// parseCompletionsInto is parseCompletions appending into a recycled
// slice (the client's Ring scratch). Decoded Data fields alias p. It
// fails closed on flags it does not know and on a zero flag that carries
// data or rides a failed completion.
func parseCompletionsInto(comps []wireCompletion, p []byte) ([]wireCompletion, error) {
	c := cursor{p: p}
	n := int(c.u16())
	for i := 0; i < n; i++ {
		cp := wireCompletion{Tag: c.u64(), Status: Status(c.u8())}
		flags := c.u8()
		cp.Mapped = flags&flagMapped != 0
		cp.Zero = flags&flagZero != 0
		cp.Msg = string(c.take(int(c.u16())))
		cp.Data = c.take(int(c.u32()))
		if c.err != nil {
			break
		}
		switch {
		case flags&^(flagMapped|flagZero) != 0:
			return comps, fmt.Errorf("%w: unknown completion flags %#x", errMalformed, flags)
		case cp.Zero && cp.Status != StatusOK:
			return comps, fmt.Errorf("%w: zero flag on a %s completion", errMalformed, cp.Status)
		case cp.Zero && len(cp.Data) != 0:
			return comps, fmt.Errorf("%w: zero flag with %d data bytes", errMalformed, len(cp.Data))
		}
		comps = append(comps, cp)
	}
	if err := c.done(); err != nil {
		return comps, err
	}
	return comps, nil
}

// cmdWireOverhead is the per-command encoding overhead in a batch frame
// (op + tag + lba + data length).
const cmdWireOverhead = 1 + 8 + 8 + 4

// compWireOverhead is the per-completion encoding overhead (tag + status +
// flags + msg length + data length).
const compWireOverhead = 8 + 1 + 1 + 2 + 4

// maxBatchPayload bounds an incoming batch frame for a session allowed
// maxCmds commands of one block each.
func maxBatchPayload(maxCmds, blockBytes int) int {
	return 2 + maxCmds*(cmdWireOverhead+blockBytes)
}

// maxCompletionsPayload bounds an incoming completions frame for a session
// with maxCmds inflight commands.
func maxCompletionsPayload(maxCmds, blockBytes int) int {
	return 2 + maxCmds*(compWireOverhead+maxMsgLen+blockBytes)
}

// pathByte converts an nvme.Path to its wire form and back.
func pathByte(p nvme.Path) byte {
	if p == nvme.PathHostFS {
		return 1
	}
	return 0
}

func pathOf(b byte) (nvme.Path, error) {
	switch b {
	case 0:
		return nvme.PathDirect, nil
	case 1:
		return nvme.PathHostFS, nil
	default:
		return 0, fmt.Errorf("%w: unknown path %d", errMalformed, b)
	}
}

// lbaOf narrows a wire LBA; the namespace bound check happens device-side.
func lbaOf(v uint64) ftl.LBA { return ftl.LBA(v) }

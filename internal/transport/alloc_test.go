package transport

import (
	"testing"

	"ftlhammer/internal/nvme"
)

// TestFrameCodecAllocs pins the zero-allocation property of the wire
// codec's recycled-buffer forms: encoding a batch or completions frame
// into a reused scratch and decoding from a reused payload must not
// allocate once the buffers have grown to their high-water mark. The
// completions include a zero-flag read, which must be free both ways too.
func TestFrameCodecAllocs(t *testing.T) {
	const blockBytes = 512
	data := make([]byte, blockBytes)
	cmds := []wireCmd{
		{Op: byte(nvme.OpRead), Tag: 1, LBA: 7},
		{Op: byte(nvme.OpWrite), Tag: 2, LBA: 9, Data: data},
		{Op: byte(nvme.OpTrim), Tag: 3, LBA: 11},
	}
	comps := []wireCompletion{
		{Tag: 1, Status: StatusOK, Mapped: true, Data: data},
		{Tag: 2, Status: StatusOK},
		{Tag: 3, Status: StatusOK},
		{Tag: 4, Status: StatusOK, Zero: true},
	}

	t.Run("encode-batch", func(t *testing.T) {
		var wbuf []byte
		encode := func() {
			frame, start := beginFrame(wbuf[:0], frameBatch)
			frame = appendBatch(frame, cmds)
			wbuf = endFrame(frame, start)
		}
		encode() // grow to high-water mark
		if avg := testing.AllocsPerRun(200, encode); avg != 0 {
			t.Errorf("batch encode: %v allocs/op, want 0", avg)
		}
	})

	t.Run("decode-batch", func(t *testing.T) {
		payload := appendBatch(nil, cmds)
		var scratch []wireCmd
		decode := func() {
			var err error
			scratch, err = parseBatchInto(scratch[:0], payload, blockBytes)
			if err != nil || len(scratch) != len(cmds) {
				t.Fatalf("parseBatchInto: %d cmds, %v", len(scratch), err)
			}
		}
		decode()
		if avg := testing.AllocsPerRun(200, decode); avg != 0 {
			t.Errorf("batch decode: %v allocs/op, want 0", avg)
		}
	})

	t.Run("encode-completions", func(t *testing.T) {
		var wbuf []byte
		encode := func() {
			frame, start := beginFrame(wbuf[:0], frameCompletions)
			frame = appendCompletions(frame, comps)
			wbuf = endFrame(frame, start)
		}
		encode()
		if avg := testing.AllocsPerRun(200, encode); avg != 0 {
			t.Errorf("completions encode: %v allocs/op, want 0", avg)
		}
	})

	t.Run("decode-completions", func(t *testing.T) {
		payload := appendCompletions(nil, comps)
		var scratch []wireCompletion
		decode := func() {
			var err error
			scratch, err = parseCompletionsInto(scratch[:0], payload)
			if err != nil || len(scratch) != len(comps) {
				t.Fatalf("parseCompletionsInto: %d comps, %v", len(scratch), err)
			}
		}
		decode()
		if avg := testing.AllocsPerRun(200, decode); avg != 0 {
			t.Errorf("completions decode: %v allocs/op, want 0", avg)
		}
	})
}

package nvme

import (
	"testing"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/sim"
)

// dirtyBlock returns a block pre-filled with 0xA5, so a read that leaves
// any byte untouched is caught.
func dirtyBlock(d *Device) []byte { return blockOf(d, 0xA5) }

// readUnmapped reads lba into a dirty buffer and requires an OK, unmapped
// completion that left the buffer all zero.
func readUnmapped(t *testing.T, d *Device, ns *Namespace, lba ftl.LBA) {
	t.Helper()
	buf := dirtyBlock(d)
	c, err := d.Do(Command{Op: OpRead, NS: ns, LBA: lba, Buf: buf})
	if err != nil || c.Err != nil {
		t.Fatalf("read LBA %d: %v / %v", lba, err, c.Err)
	}
	if c.Mapped {
		t.Fatalf("read LBA %d: Mapped = true, want an unmapped read", lba)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("read LBA %d: byte %d = %#x, want an all-zero buffer", lba, i, b)
		}
	}
}

// TestUnmappedReadsZeroFill pins the device property the transport's
// zero-filled completion flag rests on: every OK read completion with
// Mapped == false leaves the caller's buffer all zero, whatever it held
// before — for never-written and trimmed LBAs, and on the robustness
// path's retried attempts.
func TestUnmappedReadsZeroFill(t *testing.T) {
	t.Run("never-written", func(t *testing.T) {
		dev, ns, _ := testDevice(t, nil)
		readUnmapped(t, dev, ns, 0)
		readUnmapped(t, dev, ns, ftl.LBA(ns.NumLBAs-1))
	})
	t.Run("trimmed", func(t *testing.T) {
		dev, ns, _ := testDevice(t, nil)
		if err := dev.Write(ns, 4, blockOf(dev, 0x3C), PathDirect); err != nil {
			t.Fatal(err)
		}
		if err := dev.Trim(ns, 4, PathDirect); err != nil {
			t.Fatal(err)
		}
		readUnmapped(t, dev, ns, 4)
	})
	t.Run("robust-retry", func(t *testing.T) {
		// The first read's first attempt loses its completion; the second
		// read's first attempt blows its deadline (the third attempt
		// overall). Each read is served twice before it completes OK.
		plan := faults.Plan{}.
			With(faults.Rule{Kind: faults.KindDropCompletion, Every: 1, Count: 1}).
			With(faults.Rule{Kind: faults.KindLatency, Every: 3, Count: 1, Latency: 10 * sim.Millisecond})
		rob := DefaultRobust()
		rob.CommandTimeout = sim.Millisecond
		dev, ns, inj := robustDevice(t, plan, rob)
		if err := dev.Write(ns, 6, blockOf(dev, 0x66), PathDirect); err != nil {
			t.Fatal(err)
		}
		if err := dev.Trim(ns, 6, PathDirect); err != nil {
			t.Fatal(err)
		}
		inj.Arm()
		readUnmapped(t, dev, ns, 6)
		readUnmapped(t, dev, ns, 7)
		if rs := dev.RobustStats(); rs.Retries != 2 || rs.DroppedCompletions != 1 || rs.Timeouts != 2 {
			t.Fatalf("stats %+v, want 2 retries after 1 drop and 1 blown deadline", rs)
		}
	})
}

package transport

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// deviceFingerprint captures everything the simulation decides: counters,
// virtual time, and the full L2P state.
type deviceFingerprint struct {
	ns    []nvme.NSStats
	ftl   ftl.Stats
	clock int64
	l2p   uint64
}

func fingerprint(dev *nvme.Device) deviceFingerprint {
	fp := deviceFingerprint{
		ftl:   dev.FTL().Stats(),
		clock: int64(dev.Clock().Now()),
	}
	for _, ns := range dev.Namespaces() {
		fp.ns = append(fp.ns, ns.Stats())
	}
	// FNV-style hash over the entire translation table.
	const prime = 1099511628211
	fp.l2p = 14695981039346656037
	for lba := uint64(0); lba < dev.FTL().NumLBAs(); lba++ {
		fp.l2p = (fp.l2p ^ uint64(dev.FTL().PPNOf(ftl.LBA(lba)))) * prime
	}
	return fp
}

// step is one command of the generated workload.
type step struct {
	op   nvme.Opcode
	lba  ftl.LBA
	fill byte
}

// genWorkload builds a deterministic mixed sequence, including a few
// out-of-range commands so error-path equivalence is covered too.
func genWorkload(numLBAs uint64, n int) []step {
	rng := rand.New(rand.NewSource(99))
	steps := make([]step, n)
	for i := range steps {
		s := step{lba: ftl.LBA(rng.Uint64() % numLBAs), fill: byte(i)}
		switch r := rng.Intn(10); {
		case r < 5:
			s.op = nvme.OpRead
		case r < 8:
			s.op = nvme.OpWrite
		default:
			s.op = nvme.OpTrim
		}
		if i%37 == 36 {
			s.lba = ftl.LBA(numLBAs + uint64(i)) // out of range
		}
		steps[i] = s
	}
	return steps
}

// TestRemoteInProcessEquivalence proves the transport adds nothing to the
// simulation: the same seed and command sequence, driven once through a
// network session and once through a local queue pair, leave two devices
// in byte-identical states — same per-namespace and FTL counters, same
// virtual clock, same L2P table, same read payloads (into dirty buffers)
// and completion errors.
// It runs with both a single-shard and a multi-shard engine: one session's
// commands always land on one shard in arrival order, so sharding must not
// perturb the simulation at all.
func TestRemoteInProcessEquivalence(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) { testRemoteInProcessEquivalence(t, 1) })
	t.Run("shards=4", func(t *testing.T) { testRemoteInProcessEquivalence(t, 4) })
}

func testRemoteInProcessEquivalence(t *testing.T, shards int) {
	const (
		seed      = 77
		tenants   = 2
		batchSize = 8
		nOps      = 400
	)

	// Remote run.
	remoteDev, _ := newTestDevice(t, seed, tenants, faults.Plan{})
	blockBytes := remoteDev.BlockBytes()
	numLBAs := remoteDev.Namespaces()[0].NumLBAs
	steps := genWorkload(numLBAs, nOps)

	srv := NewServer(remoteDev, Config{Window: batchSize, EngineShards: shards})
	addr, stop := startServer(t, srv)
	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1, Window: batchSize})
	if err != nil {
		t.Fatal(err)
	}
	remoteReads, remoteErrs, remoteUnmapped := runRemote(t, c, steps, blockBytes, batchSize)
	c.Close()
	stop()
	remoteFP := fingerprint(remoteDev)

	// In-process run on an identically configured device.
	localDev, _ := newTestDevice(t, seed, tenants, faults.Plan{})
	localReads, localErrs, localUnmapped := runLocal(t, localDev, steps, blockBytes, batchSize)
	localFP := fingerprint(localDev)

	if len(remoteFP.ns) != len(localFP.ns) {
		t.Fatalf("namespace counts differ: %d vs %d", len(remoteFP.ns), len(localFP.ns))
	}
	for i := range remoteFP.ns {
		if remoteFP.ns[i] != localFP.ns[i] {
			t.Errorf("ns %d stats differ: remote %+v, local %+v", i+1, remoteFP.ns[i], localFP.ns[i])
		}
	}
	if remoteFP.ftl != localFP.ftl {
		t.Errorf("FTL stats differ:\nremote %+v\nlocal  %+v", remoteFP.ftl, localFP.ftl)
	}
	if remoteFP.clock != localFP.clock {
		t.Errorf("virtual clocks differ: remote %d, local %d", remoteFP.clock, localFP.clock)
	}
	if remoteFP.l2p != localFP.l2p {
		t.Errorf("L2P tables differ: remote %#x, local %#x", remoteFP.l2p, localFP.l2p)
	}
	if !bytes.Equal(remoteReads, localReads) {
		t.Error("read payloads differ between remote and in-process runs")
	}
	// Reads start from dirty buffers, so equal payloads also prove the
	// zero-flag completions cleared every unmapped read client-side.
	if remoteUnmapped != localUnmapped || remoteUnmapped == 0 {
		t.Errorf("unmapped OK reads: remote %d, local %d; want equal and non-zero", remoteUnmapped, localUnmapped)
	}
	if len(remoteErrs) != len(localErrs) {
		t.Fatalf("completion error counts differ: %d vs %d", len(remoteErrs), len(localErrs))
	}
	for i := range remoteErrs {
		if remoteErrs[i] != localErrs[i] {
			t.Errorf("step %d: remote error %q, local error %q", i, remoteErrs[i], localErrs[i])
		}
	}
}

// filledBlock returns a step's buffer: a write's payload, or for a read a
// dirty 0xA5 block that the completion must overwrite entirely (an
// unmapped read must come back all zero, not keep the stale bytes).
func filledBlock(blockBytes int, s step) []byte {
	fill := byte(0xA5)
	if s.op == nvme.OpWrite {
		fill = s.fill
	}
	return bytes.Repeat([]byte{fill}, blockBytes)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runRemote drives the workload through a client session in window-sized
// batches, returning concatenated read payloads, per-step error texts and
// the number of OK reads that came back unmapped.
func runRemote(t *testing.T, c *Client, steps []step, blockBytes, batchSize int) (reads []byte, errs []string, unmapped int) {
	t.Helper()
	for start := 0; start < len(steps); start += batchSize {
		end := start + batchSize
		if end > len(steps) {
			end = len(steps)
		}
		chunk := steps[start:end]
		bufs := make([][]byte, len(chunk))
		for i, s := range chunk {
			cmd := nvme.Command{Op: s.op, LBA: s.lba, Tag: uint64(start + i)}
			if s.op != nvme.OpTrim {
				bufs[i] = filledBlock(blockBytes, s)
				cmd.Buf = bufs[i]
			}
			if err := c.Submit(cmd); err != nil {
				t.Fatalf("submit step %d: %v", start+i, err)
			}
		}
		if _, err := c.Ring(context.Background()); err != nil {
			t.Fatalf("ring at step %d: %v", start, err)
		}
		for i, comp := range c.Completions() {
			errs = append(errs, errText(comp.Err))
			if chunk[i].op == nvme.OpRead && comp.Err == nil {
				reads = append(reads, bufs[i]...)
				if !comp.Mapped {
					unmapped++
				}
			}
		}
	}
	return reads, errs, unmapped
}

// runLocal drives the same workload through a local queue pair with the
// same batch discipline.
func runLocal(t *testing.T, dev *nvme.Device, steps []step, blockBytes, batchSize int) (reads []byte, errs []string, unmapped int) {
	t.Helper()
	ns, ok := dev.NamespaceByID(1)
	if !ok {
		t.Fatal("no namespace 1")
	}
	qp, err := dev.NewQueuePair(ns, nvme.PathDirect, batchSize)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(steps); start += batchSize {
		end := start + batchSize
		if end > len(steps) {
			end = len(steps)
		}
		chunk := steps[start:end]
		bufs := make([][]byte, len(chunk))
		for i, s := range chunk {
			cmd := nvme.Command{Op: s.op, LBA: s.lba, Tag: uint64(start + i)}
			if s.op != nvme.OpTrim {
				bufs[i] = filledBlock(blockBytes, s)
				cmd.Buf = bufs[i]
			}
			if err := qp.Submit(cmd); err != nil {
				t.Fatalf("submit step %d: %v", start+i, err)
			}
		}
		qp.Ring()
		for i, comp := range qp.Completions() {
			errs = append(errs, errText(comp.Err))
			if chunk[i].op == nvme.OpRead && comp.Err == nil {
				reads = append(reads, bufs[i]...)
				if !comp.Mapped {
					unmapped++
				}
			}
		}
	}
	return reads, errs, unmapped
}

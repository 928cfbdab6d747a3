package transport_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/transport"
)

// smallSpec is a fast device: tiny flash, small invulnerable DRAM.
func smallSpec() fleet.DeviceSpec {
	geom := nand.TinyGeometry()
	return fleet.DeviceSpec{
		Tenants: 1,
		DRAM:    &dram.Config{Geometry: dram.SmallGeometry(), Profile: dram.InvulnerableProfile()},
		Flash:   &geom,
	}
}

// checkUnmappedReadsZero drives one session: a block is written, read
// back, trimmed and read again, alongside a never-written LBA, every read
// into a buffer pre-filled with 0xA5. Mapped reads must return the
// written data; unmapped ones must come back all zero with Mapped ==
// false — the zero-flag completion carries no data, so the client itself
// has to clear the stale bytes.
func checkUnmappedReadsZero(t *testing.T, addr string, nsid int) {
	t.Helper()
	ctx := context.Background()
	c, err := transport.Dial(ctx, addr, transport.ClientConfig{NSID: nsid, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bs := c.BlockBytes()
	data := bytes.Repeat([]byte{byte(0x10 + nsid)}, bs)
	zero := make([]byte, bs)
	dirty := func() []byte { return bytes.Repeat([]byte{0xA5}, bs) }
	const lba, fresh = ftl.LBA(3), ftl.LBA(5)
	if err := c.Write(ctx, lba, data); err != nil {
		t.Fatal(err)
	}

	// One batch mixing a mapped read with an unmapped one.
	mappedBuf, freshBuf := dirty(), dirty()
	for _, cmd := range []nvme.Command{
		{Op: nvme.OpRead, LBA: lba, Buf: mappedBuf, Tag: 1},
		{Op: nvme.OpRead, LBA: fresh, Buf: freshBuf, Tag: 2},
	} {
		if err := c.Submit(cmd); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Ring(ctx); err != nil {
		t.Fatal(err)
	}
	comps := c.Completions()
	if comps[0].Err != nil || !comps[0].Mapped || !bytes.Equal(mappedBuf, data) {
		t.Fatalf("mapped read: %+v, data intact %v", comps[0], bytes.Equal(mappedBuf, data))
	}
	if comps[1].Err != nil || comps[1].Mapped || !bytes.Equal(freshBuf, zero) {
		t.Fatalf("never-written read: %+v, zero %v", comps[1], bytes.Equal(freshBuf, zero))
	}

	if err := c.Trim(ctx, lba); err != nil {
		t.Fatal(err)
	}
	buf := dirty()
	mapped, err := c.Read(ctx, lba, buf)
	if err != nil || mapped || !bytes.Equal(buf, zero) {
		t.Fatalf("trimmed read: mapped=%v err=%v zero=%v", mapped, err, bytes.Equal(buf, zero))
	}
}

// TestTrimmedReadsZeroFillRemotely runs the dirty-buffer check against a
// server directly and through a 2-device fleet frontend (which splices
// completion frames verbatim), on both devices' tenants.
func TestTrimmedReadsZeroFillRemotely(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		bd, err := smallSpec().Build(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewServer(bd.Device, transport.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(context.Background(), ln) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			if err := <-serveErr; !errors.Is(err, transport.ErrServerClosed) {
				t.Errorf("Serve returned %v", err)
			}
		}()
		checkUnmappedReadsZero(t, ln.Addr().String(), 1)
	})
	t.Run("fleet", func(t *testing.T) {
		f, err := fleet.New(fleet.Config{Devices: 2, Spec: smallSpec(), Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := f.Start(ctx); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		feErr := make(chan error, 1)
		go func() { feErr <- f.ServeFrontend(ctx, ln) }()
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer scancel()
			if err := f.Shutdown(sctx); err != nil {
				t.Errorf("fleet Shutdown: %v", err)
			}
			cancel()
			if err := <-feErr; !errors.Is(err, fleet.ErrFrontendClosed) {
				t.Errorf("ServeFrontend returned %v", err)
			}
		}()
		devices := map[int]bool{}
		for _, tenant := range f.Table().Tenants() {
			r, err := f.Table().Lookup(tenant)
			if err != nil {
				t.Fatal(err)
			}
			devices[r.Device] = true
			checkUnmappedReadsZero(t, ln.Addr().String(), tenant)
		}
		if len(devices) != 2 {
			t.Fatalf("tenants cover devices %v, want both", devices)
		}
	})
}

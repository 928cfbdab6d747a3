package cloud

import (
	"bytes"
	"strings"
	"testing"

	"ftlhammer/internal/ext4"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/nvme"
)

// smallConfig keeps testbed construction fast: the invulnerable
// profile's 512 MiB SSD.
func smallConfig() Config {
	return Config{
		Device:           fleet.DeviceSpec{Profile: "invulnerable", Tenants: 2, Amplify: 5},
		VictimFillBlocks: 512,
		Seed:             1,
	}
}

func TestTestbedConstruction(t *testing.T) {
	tb, err := NewTestbed(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tb.VictimNS.ID == tb.AttackerNS.ID {
		t.Fatal("namespaces share an ID")
	}
	if tb.VictimNS.NumLBAs+tb.AttackerNS.NumLBAs != tb.FTL.NumLBAs() {
		t.Fatal("partitions do not cover the device")
	}
	id := tb.Device.Identify()
	if id.Namespaces != 2 {
		t.Fatalf("identify: %+v", id)
	}
}

func TestVictimSecretsInPlace(t *testing.T) {
	tb, err := NewTestbed(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Root can read the key; the unprivileged attacker cannot.
	f, err := tb.VictimFS.Open("/root/.ssh/id_rsa", ext4.Root, false)
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 64)
	if _, err := f.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(head, []byte(SecretMarker)) {
		t.Fatal("secret marker missing")
	}
	if _, err := tb.VictimFS.Open("/root/.ssh/id_rsa", AttackerCred, false); err != ext4.ErrPerm {
		t.Fatalf("attacker opened the key: %v", err)
	}
	// The attacker's home is writable by the attacker.
	if _, err := tb.VictimFS.Create("/home/attacker/x", AttackerCred, ext4.CreateOptions{Mode: 0o644}); err != nil {
		t.Fatalf("attacker cannot use its home: %v", err)
	}
	// But not /root.
	if _, err := tb.VictimFS.Create("/root/evil", AttackerCred, ext4.CreateOptions{Mode: 0o644}); err == nil {
		t.Fatal("attacker wrote to /root")
	}
}

func TestVictimFillData(t *testing.T) {
	tb, err := NewTestbed(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := tb.VictimFS.Stat("/var/data", ext4.Root)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 512*ext4.BlockSize {
		t.Fatalf("fill size = %d, want %d", st.Size, 512*ext4.BlockSize)
	}
	f, err := tb.VictimFS.Open("/var/data", ext4.Root, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := f.ReadAt(buf, 100*ext4.BlockSize); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), "victim-data-block-") {
		t.Fatalf("fill content = %q", buf)
	}
}

func TestExecuteGenuineBinary(t *testing.T) {
	tb, err := NewTestbed(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.ExecuteBinary("/usr/bin/sudo", AttackerCred)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Genuine || res.Hijacked {
		t.Fatalf("unexpected exec result: %+v", res)
	}
	if !res.AsRoot {
		t.Fatal("setuid sudo did not run as root")
	}
}

func TestGroundTruthHelpers(t *testing.T) {
	tb, err := NewTestbed(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ppn, err := tb.VictimSecretPBA()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(ppn) >= tb.Flash.Geometry().TotalPages() {
		t.Fatalf("secret PBA %d out of range", ppn)
	}
	blk, err := tb.SecretFSBlock()
	if err != nil {
		t.Fatal(err)
	}
	if blk == 0 || blk >= tb.VictimNS.NumLBAs {
		t.Fatalf("secret fs block %d out of range", blk)
	}
	// Cross-check: reading the flash page directly shows the marker.
	buf := make([]byte, tb.Device.BlockBytes())
	if err := tb.Flash.Read(ppn, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, []byte(SecretMarker)) {
		t.Fatal("ground-truth PBA does not hold the secret")
	}
}

func TestNSBlockDeviceBounds(t *testing.T) {
	tb, err := NewTestbed(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	bdev := &NSBlockDevice{Dev: tb.Device, NS: tb.VictimNS, Path: nvme.PathHostFS}
	buf := make([]byte, 4096)
	if err := bdev.ReadBlock(bdev.NumBlocks(), buf); err == nil {
		t.Fatal("out-of-range block read accepted")
	}
	if bdev.BlockBytes() != 4096 {
		t.Fatal("block size mismatch")
	}
}

func TestFilesystemTrafficIsNVMeTraffic(t *testing.T) {
	tb, err := NewTestbed(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := tb.VictimNS.Stats()
	if _, err := tb.VictimFS.Stat("/usr/bin/sudo", ext4.Root); err != nil {
		t.Fatal(err)
	}
	after := tb.VictimNS.Stats()
	if after.Reads == before.Reads {
		t.Fatal("filesystem stat produced no device reads")
	}
}

func TestTestbedNeedsTwoTenants(t *testing.T) {
	cfg := smallConfig()
	cfg.Device.Tenants = 4
	if _, err := NewTestbed(cfg); err == nil {
		t.Fatal("four-tenant testbed accepted")
	}
}

func TestRateLimitedNamespaces(t *testing.T) {
	cfg := smallConfig()
	cfg.Device.MaxIOPS = 50_000
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, tb.Device.BlockBytes())
	start := tb.Clock.Now()
	const n = 20000
	for i := 0; i < n; i++ {
		if _, err := tb.Device.Read(tb.AttackerNS, 1, buf, nvme.PathDirect); err != nil {
			t.Fatal(err)
		}
	}
	iops := float64(n) / tb.Clock.Now().Sub(start).Seconds()
	if iops > 55_000 {
		t.Fatalf("rate limit leaked: %.0f IOPS", iops)
	}
}

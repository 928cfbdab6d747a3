package nvme_test

import (
	"testing"

	"ftlhammer/internal/perf"
	"ftlhammer/internal/sim"
)

// TestHammerReadAllocs pins that a hammered read, once the DRAM row table
// chunks and weak cells of its rows exist, allocates nothing: the
// disturbance model's per-activation bookkeeping is allocation-free.
func TestHammerReadAllocs(t *testing.T) {
	dev, cmds := perf.NewHammerDevice(9)
	// Two refresh windows of hammering materialize every row the
	// aggressors disturb, weak-cell samples included.
	for i := 0; dev.Clock().Now() < sim.Time(128*sim.Millisecond); i++ {
		if c, err := dev.Do(cmds[i%len(cmds)]); err != nil || c.Err != nil {
			t.Fatalf("warm read: %v / %v", err, c.Err)
		}
	}
	if dev.DRAM().Stats().FlipAttempts == 0 {
		t.Fatal("warm-up never reached the weak-cell threshold")
	}
	i := 0
	avg := testing.AllocsPerRun(300, func() {
		c, err := dev.Do(cmds[i%len(cmds)])
		if err != nil || c.Err != nil {
			t.Fatalf("Do: %v / %v", err, c.Err)
		}
		i++
	})
	if avg != 0 {
		t.Errorf("hammered read: %v allocs/op, want 0", avg)
	}
}

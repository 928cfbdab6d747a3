package dram

import (
	"fmt"
	"testing"

	"ftlhammer/internal/sim"
)

// TestMapUnmapRoundtrip fuzzes the controller mapping in both directions
// across every twist/XOR configuration: Unmap(Map(addr)) must return the
// address and Map(Unmap(loc)) the location. The offline-analysis stage of
// the attack depends on this inverse being exact.
func TestMapUnmapRoundtrip(t *testing.T) {
	geo := Geometry{
		Channels:    2,
		DIMMs:       2,
		Ranks:       2,
		Banks:       8,
		RowsPerBank: 1 << 10,
		RowBytes:    8 << 10,
	}
	for _, twist := range []RowTwist{TwistNone, TwistXor3, TwistInterleave} {
		for _, group := range []int{8, 32} {
			for _, xorBank := range []bool{false, true} {
				for _, xorChan := range []bool{false, true} {
					cfg := MapperConfig{Twist: twist, TwistGroup: group, XorBank: xorBank, XorChannel: xorChan}
					name := fmt.Sprintf("%v-g%d-xb%v-xc%v", twist, group, xorBank, xorChan)
					t.Run(name, func(t *testing.T) {
						m := NewMapper(geo, cfg)
						rng := sim.NewRNG(0xF00D)
						for i := 0; i < 4096; i++ {
							addr := rng.Uint64n(geo.Capacity())
							loc := m.Map(addr)
							if got := m.Unmap(loc); got != addr {
								t.Fatalf("Unmap(Map(%#x)) = %#x (loc %+v)", addr, got, loc)
							}
						}
						for i := 0; i < 4096; i++ {
							loc := Location{
								Channel: int(rng.Uint64n(uint64(geo.Channels))),
								DIMM:    int(rng.Uint64n(uint64(geo.DIMMs))),
								Rank:    int(rng.Uint64n(uint64(geo.Ranks))),
								Bank:    int(rng.Uint64n(uint64(geo.Banks))),
								Row:     int(rng.Uint64n(uint64(geo.RowsPerBank))),
								Col:     int(rng.Uint64n(uint64(geo.RowBytes))),
							}
							if got := m.Map(m.Unmap(loc)); got != loc {
								t.Fatalf("Map(Unmap(%+v)) = %+v", loc, got)
							}
						}
					})
				}
			}
		}
	}
}

// TestMapLineMatchesMapper pins the module's memoized per-line mapping and
// flat bank index to the mapper's pure function across a churn of addresses that exceeds the
// cache size, so hits, misses and evictions are all exercised.
func TestMapLineMatchesMapper(t *testing.T) {
	world := sim.NewWorld(11)
	m := New(Config{
		Geometry: SmallGeometry(),
		Profile:  TestbedProfile(),
		Mapping:  MapperConfig{Twist: TwistInterleave, TwistGroup: 8, XorBank: true},
		Seed:     11,
	}, world)
	rng := sim.NewRNG(0xBEEF)
	capacity := m.Mapper().Geometry().Capacity()
	for i := 0; i < 1<<14; i++ {
		addr := rng.Uint64n(capacity)
		want := m.Mapper().Map(addr &^ (lineBytes - 1))
		wantBank := m.cfg.Geometry.FlatBank(want)
		if got := m.mapLine(addr); got.loc != want || got.bank != wantBank {
			t.Fatalf("mapLine(%#x) = %+v bank %d, want %+v bank %d", addr, got.loc, got.bank, want, wantBank)
		}
		// Revisit recent addresses so cache hits are exercised too.
		if i%3 == 0 {
			if got := m.mapLine(addr); got.loc != want || got.bank != wantBank {
				t.Fatalf("cached mapLine(%#x) = %+v bank %d, want %+v bank %d", addr, got.loc, got.bank, want, wantBank)
			}
		}
	}
}

// TestAppendRowAddrsReuse verifies the allocation-free enumeration path
// returns the same addresses as the allocating one and reuses capacity.
func TestAppendRowAddrsReuse(t *testing.T) {
	m := NewMapper(SmallGeometry(), MapperConfig{XorBank: true})
	loc := Location{Bank: 3, Row: 200}
	fresh := m.RowAddrs(loc, 64)
	scratch := make([]uint64, 0, len(fresh))
	got := m.AppendRowAddrs(scratch[:0], loc, 64)
	if len(got) != len(fresh) {
		t.Fatalf("AppendRowAddrs returned %d addrs, want %d", len(got), len(fresh))
	}
	for i := range got {
		if got[i] != fresh[i] {
			t.Fatalf("addr %d: %#x != %#x", i, got[i], fresh[i])
		}
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("AppendRowAddrs reallocated despite sufficient capacity")
	}
}

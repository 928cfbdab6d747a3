package experiments

import (
	"math"
	"testing"
)

// monteCarlo estimates the single-cycle success probability by direct
// simulation of the §4.3 model: a bitflip strikes a uniformly random
// victim-partition translation; the flip is useful when that translation
// belonged to a sprayed indirect block AND its new physical target holds
// malicious content.
func monteCarlo(p ProbParams, trials int, seed uint64) float64 {
	return float64(p.MonteCarloShard(trials, seed)) / float64(trials)
}

func TestPaperScenarioIsSevenPercent(t *testing.T) {
	p := PaperScenario()
	got := p.SingleCycle()
	if math.Abs(got-0.0703125) > 1e-9 {
		t.Fatalf("single-cycle probability = %v, want 9/128 ≈ 7%%", got)
	}
	if after := p.AfterCycles(10); after <= 0.5 {
		t.Fatalf("10 cycles = %v, paper says > 50%%", after)
	}
	if n := p.CyclesFor(0.5); n != 10 {
		t.Fatalf("CyclesFor(0.5) = %d, want 10", n)
	}
}

func TestMonteCarloMatchesClosedForm(t *testing.T) {
	for _, p := range []ProbParams{
		PaperScenario(),
		{LB: 1 << 16, PB: 1 << 16, Cv: 1 << 15, Ca: 1 << 15, Fv: 1 << 12, Fa: 1 << 14},
		{LB: 1 << 16, PB: 1 << 16, Cv: 1 << 15, Ca: 1 << 15, Fv: 1 << 15, Fa: 0},
	} {
		want := p.SingleCycle()
		got := monteCarlo(p, 400000, 7)
		if math.Abs(got-want) > 0.01+want*0.1 {
			t.Errorf("MC %v vs analytic %v for %+v", got, want, p)
		}
	}
}

func TestProbabilityValidation(t *testing.T) {
	bad := ProbParams{LB: 10, PB: 10, Cv: 8, Ca: 8}
	if bad.Validate() == nil {
		t.Fatal("Cv+Ca > LB accepted")
	}
	if bad.SingleCycle() != 0 {
		t.Fatal("invalid params produced probability")
	}
	bad2 := ProbParams{LB: 10, PB: 10, Cv: 4, Ca: 4, Fv: 5}
	if bad2.Validate() == nil {
		t.Fatal("Fv > Cv accepted")
	}
}

func TestAfterCyclesMonotone(t *testing.T) {
	p := PaperScenario()
	last := 0.0
	for n := 1; n <= 50; n++ {
		v := p.AfterCycles(n)
		if v < last || v > 1 {
			t.Fatalf("AfterCycles not monotone at %d: %v < %v", n, v, last)
		}
		last = v
	}
}

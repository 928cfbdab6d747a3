package experiments

import (
	"testing"

	"ftlhammer/internal/cloud"
)

func TestDemonstrateEscalation(t *testing.T) {
	tb, err := cloud.NewTestbed(quickTestbedConfig(0xBEEF))
	if err != nil {
		t.Fatal(err)
	}
	res, err := demonstrateEscalation(tb)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hijacked {
		t.Fatal("execution not hijacked")
	}
	if !res.AsRoot {
		t.Fatal("hijacked execution not privileged")
	}
	if res.Genuine {
		t.Fatal("result claims both genuine and hijacked")
	}
}

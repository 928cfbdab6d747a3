package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ftlhammer/internal/cloud"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/perf"
)

const assemblyGoldenPath = "testdata/golden/assembly.json"

// assemblyEntry pins one assembled device: its config digest and its
// full state hash right after assembly.
type assemblyEntry struct {
	ConfigDigest string `json:"config_digest"`
	StateHash    string `json:"state_hash"`
}

// specDevice builds the cmd/hammerd and cmd/ftlreplay default device
// (seed 0xBEEF, 4 tenants, x1) on the given DRAM profile.
func specDevice(profile string) func() (*nvme.Device, error) {
	return func() (*nvme.Device, error) {
		bd, err := fleet.DeviceSpec{Profile: profile, Tenants: 4, Amplify: 1}.Build(0xBEEF, nil)
		if err != nil {
			return nil, err
		}
		return bd.Device, nil
	}
}

// testbedDevice builds a testbed; its state includes the formatted and
// filled victim filesystem.
func testbedDevice(cfg func() cloud.Config) func() (*nvme.Device, error) {
	return func() (*nvme.Device, error) {
		tb, err := cloud.NewTestbed(cfg())
		if err != nil {
			return nil, err
		}
		return tb.Device, nil
	}
}

// mitigationDevice builds the §5 probe testbed of the named table row.
func mitigationDevice(name string) func() (*nvme.Device, error) {
	return testbedDevice(func() cloud.Config {
		for _, p := range mitigationProbes() {
			if p.name == name {
				return mitigationConfig(p)
			}
		}
		panic(fmt.Sprintf("no mitigation probe %q", name))
	})
}

// assemblies lists every device build the golden pins, by name.
func assemblies() map[string]func() (*nvme.Device, error) {
	return map[string]func() (*nvme.Device, error){
		"spec-weak":         specDevice("weak"),
		"spec-testbed":      specDevice("testbed"),
		"spec-invulnerable": specDevice("invulnerable"),
		"perf-hammer": func() (*nvme.Device, error) {
			dev, _ := perf.NewHammerDevice(7)
			return dev, nil
		},
		"paper-testbed":    testbedDevice(func() cloud.Config { return paperTestbedConfig(0xF2) }),
		"quick-testbed":    testbedDevice(func() cloud.Config { return quickTestbedConfig(0xBEEF) }),
		"hashed-testbed":   testbedDevice(hashedTestbedConfig),
		"mitig-base":       mitigationDevice("none (baseline)"),
		"mitig-cache":      mitigationDevice("FTL CPU cache for L2P"),
		"mitig-ratelimit":  mitigationDevice("I/O rate limit (100K IOPS/ns)"),
		"faults-robust":    testbedDevice(func() cloud.Config { return faultConfig(0.01, 0xF0) }),
		"faults-robust-r0": testbedDevice(func() cloud.Config { return faultConfig(0, 0xF0) }),
	}
}

// TestGoldenAssembly pins what every device builder assembles: the
// config digest and the state hash right after construction (for
// testbeds, after mkfs and the victim fill). A refactor of device
// assembly must leave both byte-identical. Run with -update after an
// intentional change.
func TestGoldenAssembly(t *testing.T) {
	t.Parallel()
	builds := assemblies()
	names := make([]string, 0, len(builds))
	for name := range builds {
		names = append(names, name)
	}
	sort.Strings(names)

	got := make(map[string]assemblyEntry, len(builds))
	for _, name := range names {
		dev, err := builds[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = assemblyEntry{
			ConfigDigest: fmt.Sprintf("%#016x", dev.ConfigDigest()),
			StateHash:    fmt.Sprintf("%#016x", dev.StateHash()),
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.MkdirAll(filepath.Dir(assemblyGoldenPath), 0o755)
		}
		if err == nil {
			err = os.WriteFile(assemblyGoldenPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(assemblyGoldenPath)
	if err != nil {
		t.Fatalf("read assembly golden (run with -update to regenerate): %v", err)
	}
	var want map[string]assemblyEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden pins %d builds, test builds %d (run with -update)", len(want), len(got))
	}
	for _, name := range names {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in the golden (run with -update)", name)
		} else if got[name] != w {
			t.Errorf("%s: assembled %+v, golden %+v", name, got[name], w)
		}
	}
}

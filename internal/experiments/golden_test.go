package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "re-record the experiment golden hashes")

const (
	goldenManifestPath = "testdata/golden/manifest.json"
	// reproPinsPath is the benchmark's own pin of quick-mode output
	// hashes; the golden must agree with it wherever both pin an
	// experiment.
	reproPinsPath = "../../perfbench/repro_hashes.txt"
)

// goldenEntry pins one experiment: the SHA-256 of its quick-mode output
// text and of its deterministic metric snapshot table.
type goldenEntry struct {
	Output  string `json:"output"`
	Metrics string `json:"metrics"`
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestGoldenExperiments runs every registered experiment once in quick
// mode with an observability registry attached and checks both the
// output text and the metric snapshot against the manifest. Any change
// to a paper number, a table's layout, or what an experiment counts
// shows up here. The test and its per-experiment subtests run in
// parallel, so ttl's long campaign overlaps the rest of the package. Run
// with -update after an intentional change.
func TestGoldenExperiments(t *testing.T) {
	t.Parallel()
	exps := All()
	var want map[string]goldenEntry
	if !*updateGolden {
		want = readGoldenManifest(t)
		registered := make(map[string]bool, len(exps))
		for _, e := range exps {
			registered[e.ID] = true
		}
		for id := range want {
			if !registered[id] {
				t.Errorf("manifest experiment %q no longer registered (run with -update)", id)
			}
		}
	}
	var mu sync.Mutex
	got := make(map[string]goldenEntry)
	if *updateGolden {
		// Cleanup runs once every parallel subtest has finished.
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			if len(got) != len(exps) {
				t.Errorf("-update ran %d of %d experiments; re-record without a -run filter", len(got), len(exps))
				return
			}
			b, err := json.MarshalIndent(got, "", "  ")
			if err == nil {
				err = os.MkdirAll(filepath.Dir(goldenManifestPath), 0o755)
			}
			if err == nil {
				err = os.WriteFile(goldenManifestPath, append(b, '\n'), 0o644)
			}
			if err != nil {
				t.Error(err)
				return
			}
			t.Logf("recorded %d experiment goldens", len(got))
		})
	}
	// ttl's 5%-coverage campaign is a single ~40 s trial; starting it
	// first lets every other experiment run alongside it.
	sort.SliceStable(exps, func(i, j int) bool { return exps[i].ID == "ttl" && exps[j].ID != "ttl" })
	for _, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			out, metrics, _ := runObserved(t, e.ID, 0)
			g := goldenEntry{Output: sha256Hex(out), Metrics: sha256Hex(metrics)}
			if *updateGolden {
				mu.Lock()
				got[e.ID] = g
				mu.Unlock()
				return
			}
			w, ok := want[e.ID]
			switch {
			case !ok:
				t.Errorf("not in the manifest (run with -update)")
			case w.Output != g.Output:
				t.Errorf("output hash %s, manifest says %s; output:\n%s", g.Output, w.Output, out)
			case w.Metrics != g.Metrics:
				t.Errorf("metric snapshot hash %s, manifest says %s; snapshot:\n%s", g.Metrics, w.Metrics, metrics)
			}
		})
	}
}

func readGoldenManifest(t *testing.T) map[string]goldenEntry {
	t.Helper()
	b, err := os.ReadFile(goldenManifestPath)
	if err != nil {
		t.Fatalf("read golden manifest (run with -update to regenerate): %v", err)
	}
	want := make(map[string]goldenEntry)
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenMatchesBenchmarkPins cross-checks the manifest against the
// benchmark's pinned output hashes: both hash the same quick-mode output,
// so they must agree for every experiment both pin. blast is exempt: the
// benchmark pins an output from before its report became deterministic.
func TestGoldenMatchesBenchmarkPins(t *testing.T) {
	want := readGoldenManifest(t)
	f, err := os.Open(reproPinsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	checked := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, pin, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok || id == "blast" {
			continue
		}
		w, found := want[id]
		if !found {
			t.Errorf("%s: pinned by the benchmark but missing from the golden manifest", id)
			continue
		}
		if w.Output != pin {
			t.Errorf("%s: golden output hash %s, benchmark pins %s", id, w.Output, pin)
		}
		checked++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no benchmark pins checked")
	}
}

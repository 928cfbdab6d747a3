package experiments

import (
	"errors"
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// faultTrial is one (fault rate, seed) measurement.
type faultTrial struct {
	KIOPS    float64 // victim goodput, thousands of ops per virtual second
	OKFrac   float64 // fraction of victim commands that completed cleanly
	Retries  uint64
	Timeouts uint64
	Media    uint64 // attempt-level media errors
	Failed   uint64 // commands completing with a typed failure
	Readonly uint64 // read-only mode entries
	Observed bool   // attack saw translation corruption
	Blocked  bool   // attack stopped by device degradation
}

// FaultsRobustness sweeps injected fault rates over the standardized
// testbed and reports, per rate: legitimate-tenant goodput through the
// robust NVMe front end, robustness-path activity (retries, timeouts,
// media errors, degradation), and attack success probability. The sweep
// fans across the trial engine; output is byte-identical at any worker
// count.
func FaultsRobustness(w io.Writer, opt Options) error {
	section(w, "faults", "robustness campaign: goodput and attack success vs injected fault rate")
	rates := []float64{0, 0.001, 0.01, 0.25}
	reps := 5
	if opt.Quick {
		reps = 3
	}
	rows, err := runTrialsObs(opt, len(rates)*reps, func(i int, reg *obs.Registry) (faultTrial, error) {
		return faultProbe(rates[i/reps], 0xF0+uint64(i), opt.Quick, reg)
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-10s %10s %8s %8s %9s %7s %7s %9s %8s\n",
		"fault-rate", "goodput", "ok-frac", "retries", "timeouts", "media", "failed", "readonly", "attack")
	for ri, rate := range rates {
		var agg faultTrial
		success, blocked := 0, 0
		for r := 0; r < reps; r++ {
			t := rows[ri*reps+r]
			agg.KIOPS += t.KIOPS
			agg.OKFrac += t.OKFrac
			agg.Retries += t.Retries
			agg.Timeouts += t.Timeouts
			agg.Media += t.Media
			agg.Failed += t.Failed
			agg.Readonly += t.Readonly
			if t.Observed {
				success++
			}
			if t.Blocked {
				blocked++
			}
		}
		attack := fmt.Sprintf("%d/%d", success, reps)
		if blocked > 0 {
			attack += fmt.Sprintf(" (%d blkd)", blocked)
		}
		fmt.Fprintf(w, "%-10g %9.1fk %8.4f %8d %9d %7d %7d %9d %8s\n",
			rate, agg.KIOPS/float64(reps), agg.OKFrac/float64(reps),
			agg.Retries, agg.Timeouts, agg.Media, agg.Failed, agg.Readonly, attack)
	}
	fmt.Fprintf(w, "\ngoodput is the victim tenant's clean-completion rate; 'attack' counts seeds\n")
	fmt.Fprintf(w, "where hammering corrupted a translation ('blkd': the probe was stopped by\n")
	fmt.Fprintf(w, "read-only degradation or command failures). Rising fault rates cost both\n")
	fmt.Fprintf(w, "tenants: retries/backoff throttle the attacker's achievable rate below the\n")
	fmt.Fprintf(w, "hammering threshold before the victim's goodput fully collapses.\n")
	return nil
}

// faultConfig is one trial's testbed: the quick testbed at x1 with the
// rate's fault plan and the robust NVMe front end.
func faultConfig(rate float64, seed uint64) cloud.Config {
	cfg := quickTestbedConfig(seed)
	cfg.Device.Amplify = 1
	// Single-tenant mapping so the probe can observe its own victim rows
	// (same standardization as the §5 mitigation probes).
	cfg.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
	cfg.Device.FaultRate = rate
	cfg.Device.Robust = true
	return cfg
}

// faultProbe runs one trial: build the testbed with the plan armed, drive
// a victim goodput workload, then the standardized attack probe.
func faultProbe(rate float64, seed uint64, quick bool, reg *obs.Registry) (faultTrial, error) {
	cfg := faultConfig(rate, seed)
	cfg.Obs = reg
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		return faultTrial{}, err
	}

	// Victim goodput: a mixed 2:1 read/write raw workload on the victim
	// namespace through a queue pair, as the legitimate tenant's traffic.
	nOps := 6000
	if quick {
		nOps = 2000
	}
	qp, err := tb.Device.NewQueuePair(tb.VictimNS, nvme.PathHostFS, 32)
	if err != nil {
		return faultTrial{}, err
	}
	rng := tb.World.Stream(0x600d9)
	buf := make([]byte, tb.Device.BlockBytes())
	data := make([]byte, tb.Device.BlockBytes())
	for i := range data {
		data[i] = byte(i)
	}
	start := tb.Clock.Now()
	ok, bad := 0, 0
	for done := 0; done < nOps; {
		batch := qp.Depth()
		if nOps-done < batch {
			batch = nOps - done
		}
		for j := 0; j < batch; j++ {
			lba := ftl.LBA(rng.Uint64n(tb.VictimNS.NumLBAs))
			cmd := nvme.Command{Op: nvme.OpRead, LBA: lba, Buf: buf}
			if rng.Float64() > 0.67 {
				cmd = nvme.Command{Op: nvme.OpWrite, LBA: lba, Buf: data}
			}
			if err := qp.Submit(cmd); err != nil {
				return faultTrial{}, err
			}
		}
		qp.Ring()
		for _, c := range qp.Completions() {
			if c.Err != nil {
				bad++
			} else {
				ok++
			}
		}
		done += batch
	}
	elapsed := tb.Clock.Now().Sub(start)

	observed, blocked, err := faultAttackProbe(tb, quick)
	if err != nil {
		return faultTrial{}, err
	}

	rs := tb.Device.RobustStats()
	return faultTrial{
		KIOPS:    float64(ok) / elapsed.Seconds() / 1e3,
		OKFrac:   float64(ok) / float64(ok+bad),
		Retries:  rs.Retries,
		Timeouts: rs.Timeouts,
		Media:    rs.MediaErrors,
		Failed:   rs.TimedOutCmds + rs.AbortedCmds + rs.MediaFailedCmds,
		Readonly: rs.ReadOnlyEntries,
		Observed: observed,
		Blocked:  blocked,
	}, nil
}

// faultAttackProbe runs the standardized templating attack. Degradation
// stopping the attack (read-only mode, exhausted retries) is a result,
// not an error: it reports blocked=true.
func faultAttackProbe(tb *cloud.Testbed, quick bool) (observed, blocked bool, err error) {
	dev, ns := tb.Device, tb.AttackerNS
	plans, err := attack.Analyze(dev, ns, attack.AnalyzeOptions{})
	if err != nil {
		if isDegradation(err) {
			return false, true, nil
		}
		return false, false, err
	}
	nPlans := 6
	if quick {
		nPlans = 4
	}
	if len(plans) > nPlans {
		plans = plans[:nPlans]
	}
	pat := attack.DoublePattern()
	pat.Iterations = attack.WindowBudget(dev, 2)
	results, err := attack.Template(dev, ns, nvme.PathDirect, plans, pat)
	if err != nil {
		if isDegradation(err) {
			return false, true, nil
		}
		return false, false, err
	}
	for _, r := range results {
		if r.Vulnerable {
			observed = true
		}
	}
	return observed, false, nil
}

// isDegradation classifies command failures caused by the robustness
// layer (as opposed to experiment bugs).
func isDegradation(err error) bool {
	return errors.Is(err, nvme.ErrReadOnly) || errors.Is(err, nvme.ErrTimeout) ||
		errors.Is(err, nvme.ErrAborted) || errors.Is(err, nvme.ErrMediaFailure)
}

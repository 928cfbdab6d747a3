package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/obs"
)

// TimeToLeak42 reproduces the §4.2 timing observation: the time to flip a
// bit usefully and control a victim indirect block depends strongly on
// spray coverage. The paper's testbed needed about two hours, "longer than
// expected in practice because SPDK limits file spraying to 5% of the
// victim partition". The experiment runs the full campaign at several
// spray-coverage levels, including the paper's 5% operating point, and
// reports cycles and virtual time to the first successful leak. Each
// coverage level is an independent trial (own testbed, own world) fanned
// across the trial engine; rows print in coverage order.
func TimeToLeak42(w io.Writer, opt Options) error {
	section(w, "§4.2", "time to a useful bitflip vs spray coverage")
	fractions := []float64{0.05, 0.15, 0.30}
	fmt.Fprintf(w, "%-18s %10s %10s %14s %12s %8s\n",
		"victim spray", "files", "cycles", "virtual time", "flips", "leaked")
	type ttlRow struct {
		Files int
		Rep   *attack.CampaignReport
	}
	rows, err := runTrialsObs(opt, len(fractions), func(i int, reg *obs.Registry) (ttlRow, error) {
		frac := fractions[i]
		cfg := quickTestbedConfig(0x42)
		cfg.Device.Amplify = 1
		cfg.Obs = reg
		tb, err := cloud.NewTestbed(cfg)
		if err != nil {
			return ttlRow{}, err
		}
		// Each spray file occupies ~3 blocks (indirect + 2 data).
		files := int(float64(tb.VictimNS.NumLBAs) * frac / 3)
		rep, err := attack.NewCampaign(tb, attack.CampaignConfig{
			SprayFiles:      files,
			TargetsPerFile:  64,
			MaxCycles:       80,
			TriplesPerCycle: 8,
			Hunt:            "victim-data-block-",
		}).Run()
		if err != nil {
			return ttlRow{}, err
		}
		return ttlRow{Files: files, Rep: rep}, nil
	})
	if err != nil {
		return err
	}
	for i, frac := range fractions {
		rep := rows[i].Rep
		cycles := fmt.Sprintf("%d", rep.Cycles)
		if !rep.SecretFound {
			cycles = fmt.Sprintf(">%d", rep.Cycles) // censored at the cap
		}
		fmt.Fprintf(w, "%-18.2f %10d %10s %14v %12d %8v\n",
			frac, rows[i].Files, cycles, rep.Elapsed, rep.FlipsInduced, rep.SecretFound)
	}
	fmt.Fprintf(w, "-> low coverage (the paper's 5%% SPDK limit) stretches the attack, as reported;\n")
	fmt.Fprintf(w, "   the paper's two-hour testbed figure was attributed to exactly this limit\n")
	return nil
}

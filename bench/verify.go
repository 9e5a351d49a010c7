package main

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/fl"
	"repro/internal/storage"
)

// verify checks that the workload's outputs are correct, untimed, on a
// fresh deployment driven beside a reference twin:
//
//   - train_*: the deployment and an in-process, Workers=1, sync-read
//     twin of the same fl.Config must learn the same model
//     (Trainer.Fingerprint). Fingerprints, not Snapshot() bytes: a
//     sharded controller's batch fan-out order is scheduler-dependent
//     (ROADMAP item 0), which moves state bytes but not the model.
//   - oram_serve: the file-backed run and the same run on the simulator
//     must report equal K and KSampled every round and equal PeekRow on
//     every row touched.
//
// Each comparison becomes a check; a failed check makes the run
// incorrect and counts in failed_op_share.
func verify(cfg segmentConfig, res *segmentResult) error {
	if cfg.VerifyRounds <= 0 {
		return nil
	}
	dir, err := runDir(cfg.OutDir, 1000)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := env{geom: cfg.Geom, seed: cfg.Seed, dir: dir}
	d, err := setup(cfg.Workload, e)
	if err != nil {
		return fmt.Errorf("%s: verify setup: %w", cfg.Workload, err)
	}
	defer d.Close()
	if cfg.Workload == wORAMServe {
		return verifyServe(cfg, e, d, res)
	}

	twinCfg := trainConfig(cfg.Workload, e)
	twinCfg.Workers, twinCfg.ShardWorkers, twinCfg.Prefetch = 1, 1, false
	twin, err := fl.New(twinCfg)
	if err != nil {
		return fmt.Errorf("%s: verify twin: %w", cfg.Workload, err)
	}
	defer twin.Close()
	for i := 0; i < cfg.VerifyRounds; i++ {
		res.Attempted += 2
		if _, err := d.round(i < cfg.VerifyRounds-1); err != nil {
			return fmt.Errorf("%s: verify round %d: %w", cfg.Workload, i, err)
		}
		if _, err := twin.RunRound(); err != nil {
			return fmt.Errorf("%s: verify twin round %d: %w", cfg.Workload, i, err)
		}
	}
	got, err := d.trainer.Fingerprint()
	if err != nil {
		return err
	}
	want, err := twin.Fingerprint()
	if err != nil {
		return err
	}
	res.Checks = append(res.Checks, check{
		Name:   "fingerprint_equals_inprocess_twin",
		OK:     got == want,
		Detail: fmt.Sprintf("%d rounds: deployment %016x, twin %016x", cfg.VerifyRounds, got, want),
	})
	res.Failed += int(sdkStats(d).Failures)
	return nil
}

func verifyServe(cfg segmentConfig, e env, file *deployment, res *segmentResult) error {
	sim, err := setupORAMServe(e, storage.KindSim)
	if err != nil {
		return fmt.Errorf("%s: verify twin: %w", cfg.Workload, err)
	}
	defer sim.Close()
	file.touched, sim.touched = map[uint64]bool{}, map[uint64]bool{}
	// The two runs share nothing and each is single-threaded, so they run
	// side by side on the two cores.
	run := func(d *deployment) ([]roundStats, error) {
		stats := make([]roundStats, cfg.VerifyRounds)
		for i := range stats {
			var err error
			if stats[i], err = d.round(false); err != nil {
				return nil, fmt.Errorf("%s: verify round %d: %w", cfg.Workload, i, err)
			}
		}
		return stats, nil
	}
	var simStats []roundStats
	var simErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		simStats, simErr = run(sim)
	}()
	fileStats, err := run(file)
	<-done
	if err != nil {
		return err
	}
	if simErr != nil {
		return fmt.Errorf("twin: %w", simErr)
	}
	res.Attempted += 2 * cfg.VerifyRounds
	countsOK, detail := true, ""
	for i, a := range fileStats {
		if b := simStats[i]; (a.K != b.K || a.KSampled != b.KSampled) && countsOK {
			countsOK = false
			detail = fmt.Sprintf("round %d: file K=%d k=%d, sim K=%d k=%d", i, a.K, a.KSampled, b.K, b.KSampled)
		}
	}
	res.Checks = append(res.Checks, check{Name: "file_counts_equal_sim", OK: countsOK, Detail: detail})

	rows := make([]uint64, 0, len(file.touched))
	for row := range file.touched {
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	rowsOK, detail := len(rows) > 0 && len(rows) == len(sim.touched), ""
	for _, row := range rows {
		a, err := file.ctrls[0].PeekRow(row)
		if err != nil {
			return err
		}
		b, err := sim.ctrls[0].PeekRow(row)
		if err != nil {
			return err
		}
		for j := range a {
			if a[j] != b[j] && rowsOK {
				rowsOK = false
				detail = fmt.Sprintf("row %d differs: file %v, sim %v", row, a, b)
			}
		}
	}
	if rowsOK {
		detail = fmt.Sprintf("%d touched rows equal after %d rounds", len(rows), cfg.VerifyRounds)
	}
	res.Checks = append(res.Checks, check{Name: "file_rows_equal_sim", OK: rowsOK, Detail: detail})
	return nil
}

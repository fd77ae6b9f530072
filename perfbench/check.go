package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"

	"coschedsim/internal/workload"
)

// checkAggregate holds for an aggregate run on any seed: the job completed,
// and every timed call produced one finite, positive time.
func checkAggregate(completed bool, times []float64, calls int) error {
	if !completed {
		return errors.New("job did not complete")
	}
	if len(times) != calls {
		return fmt.Errorf("%d call times, want %d", len(times), calls)
	}
	for i, t := range times {
		if !(t > 0) || math.IsInf(t, 0) {
			return fmt.Errorf("call %d took %v us", i, t)
		}
	}
	return nil
}

// dumps is the number of restart dumps an ALE3D run writes: one every
// CheckpointEvery steps before the last step, plus the terminal dump.
func dumps(spec workload.ALE3DSpec) int {
	if spec.CheckpointEvery == 0 {
		return 1
	}
	return (spec.Timesteps-1)/spec.CheckpointEvery + 1
}

// checkALE3D holds for an ALE3D run on any seed: the job completed every
// step, and GPFS moved exactly the bytes the spec asks for — every rank's
// restart file once per dump, and every rank's initial state once.
func checkALE3D(res workload.ALE3DResult, spec workload.ALE3DSpec, ranks int) error {
	switch {
	case !res.Completed:
		return errors.New("job did not complete")
	case res.Timesteps != spec.Timesteps:
		return fmt.Errorf("%d timesteps, want %d", res.Timesteps, spec.Timesteps)
	case res.StepTime <= 0 || res.DumpTime <= 0:
		return fmt.Errorf("step time %v, dump time %v", res.StepTime, res.DumpTime)
	}
	if want := uint64(ranks) * uint64(spec.RestartWriteBytes) * uint64(dumps(spec)); res.IOStats.BytesWritten != want {
		return fmt.Errorf("gpfs wrote %d bytes, want %d ranks x %d B x %d dumps = %d",
			res.IOStats.BytesWritten, ranks, spec.RestartWriteBytes, dumps(spec), want)
	}
	if want := uint64(ranks) * uint64(spec.InitialReadBytes); res.IOStats.BytesRead != want {
		return fmt.Errorf("gpfs read %d bytes, want %d ranks x %d B = %d",
			res.IOStats.BytesRead, ranks, spec.InitialReadBytes, want)
	}
	return nil
}

// checkDigest compares a run's digest with the digest of the same run in an
// earlier pass (determinism) and with the one recorded for this seed, where
// either is known.
func checkDigest(got, earlier, recorded string) error {
	if earlier != "" && got != earlier {
		return fmt.Errorf("digest %s differs from the earlier pass's %s", got, earlier)
	}
	if recorded != "" && got != recorded {
		return fmt.Errorf("digest %s differs from the recorded %s", got, recorded)
	}
	return nil
}

// digestFile is digests.json: for each base seed, workload and run label,
// the digest of the run's simulated outputs.
type digestFile map[string]map[string]map[string]string

func loadDigests(path string) (digestFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := digestFile{}
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// forRun returns the digests recorded for one workload at one base seed
// (nil when none are).
func (d digestFile) forRun(seed int64, workload string) map[string]string {
	return d[strconv.FormatInt(seed, 10)][workload]
}

// recordDigests runs one pass of every workload at seed and stores its run
// digests in the digests file at path.
func recordDigests(d digestFile, seed int64, path string) error {
	bySeed := map[string]map[string]string{}
	for _, w := range workloads {
		specs := w.plan(seed)
		p, err := runPass(specs, nil)
		if err != nil {
			return err
		}
		runs := map[string]string{}
		for i, spec := range specs {
			if p.errs[i] != nil {
				return fmt.Errorf("%s %s: %w", w.name, spec.label, p.errs[i])
			}
			runs[spec.label] = p.outs[i].digest
		}
		bySeed[w.name] = runs
	}
	d[strconv.FormatInt(seed, 10)] = bySeed
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

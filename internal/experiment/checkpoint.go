package experiment

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
)

// Sweep checkpointing: every completed aggregate-benchmark run's result is
// appended to a JSONL file as it finishes, and a resumed sweep
// (Options.Resume) replays those entries instead of re-simulating — so an
// interrupted -huge sweep restarts where it left off. Correctness rests on
// two facts: every run's seed derives from its sweep coordinates (never from
// execution order), and Go's JSON float64 round-trips exactly — a replayed
// cell is bit-identical to a re-run one.

// cpHeader is the checkpoint file's first line. The fingerprint ties the
// file to the option values that determine run outputs; a mismatched file is
// discarded rather than replayed into the wrong sweep.
type cpHeader struct {
	Fingerprint string `json:"fingerprint"`
}

// cpEntry is one completed run.
type cpEntry struct {
	Key    string  `json:"key"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
}

// fingerprint digests the option fields that determine run outputs.
// Whether runs are sharded is one of them: the sharded core's output does
// not depend on its worker count, but it does not match the serial engine
// in every jittered configuration, so a serial checkpoint must not replay
// into a sharded sweep or the reverse. Parallelism and the worker count
// among sharded runs are left out, so a sweep may resume with a different
// worker budget than the one that started it.
func (o Options) fingerprint() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("seed=%d nodes=%d calls=%d seeds=%d grain=%d window=%d sharded=%t",
		o.BaseSeed, o.MaxNodes, o.Calls, o.Seeds, o.ComputeGrain, o.Window, o.shardWorkers() > 1)))
	return fmt.Sprintf("%x", h[:8])
}

// checkpoint is an open checkpoint file: a cache of completed entries plus
// an append handle. Safe for concurrent record/lookup from pool workers.
type checkpoint struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	cache map[string]runOut
}

// openCheckpoints deduplicates opens per path within the process: a runner
// that fans several runAggregate batches into one sweep shares one handle,
// so a later batch never truncates an earlier batch's entries.
var (
	openCPMu sync.Mutex
	openCPs  = map[string]*checkpoint{}
)

// openCheckpoint returns the checkpoint for path, loading existing entries
// when resume is set and the file's fingerprint matches fp (otherwise the
// file is started fresh). Unparsable lines — e.g. a half-written record from
// a killed process — are skipped, and the file is rewritten with only the
// valid lines before appending resumes: a torn record with no trailing
// newline would otherwise corrupt the first entry appended after it. The
// rewrite goes to a synced temporary file that is then renamed over path,
// so a kill at any point leaves either the old file or the new one.
func openCheckpoint(path string, resume bool, fp string) (*checkpoint, error) {
	openCPMu.Lock()
	defer openCPMu.Unlock()
	if cp, ok := openCPs[path]; ok {
		return cp, nil
	}
	cp := &checkpoint{path: path, cache: map[string]runOut{}}
	var keep []string
	if resume {
		if data, err := os.ReadFile(path); err == nil {
			lines := strings.Split(string(data), "\n")
			var hdr cpHeader
			if json.Unmarshal([]byte(lines[0]), &hdr) == nil && hdr.Fingerprint == fp {
				for _, ln := range lines[1:] {
					var e cpEntry
					if json.Unmarshal([]byte(ln), &e) != nil || e.Key == "" {
						continue
					}
					cp.cache[e.Key] = runOut{mean: e.Mean, stddev: e.Stddev}
					keep = append(keep, ln)
				}
			}
		}
	}
	tmp := path + ".tmp"
	if err := writeSynced(tmp, fp, keep); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("experiment: write checkpoint %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("experiment: replace checkpoint %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("experiment: open checkpoint %s: %w", path, err)
	}
	cp.f = f
	openCPs[path] = cp
	return cp, nil
}

// writeSynced writes a checkpoint header for fp followed by lines to a new
// file at path and syncs it to stable storage.
func writeSynced(path, fp string, lines []string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	hdr, _ := json.Marshal(cpHeader{Fingerprint: fp}) // a string field always marshals
	fmt.Fprintf(w, "%s\n", hdr)
	for _, ln := range lines {
		fmt.Fprintf(w, "%s\n", ln)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// resetCheckpointsForTest drops the process-wide open-file registry so a
// test can simulate a fresh process re-opening (and re-reading) a
// checkpoint file left behind by a killed sweep.
func resetCheckpointsForTest() {
	openCPMu.Lock()
	defer openCPMu.Unlock()
	for path, cp := range openCPs {
		cp.f.Close()
		delete(openCPs, path)
	}
}

// lookup returns a previously completed run's result. A nil checkpoint
// holds nothing.
func (cp *checkpoint) lookup(key string) (runOut, bool) {
	if cp == nil {
		return runOut{}, false
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	r, ok := cp.cache[key]
	return r, ok
}

// record appends one completed run, synced so a kill mid-sweep loses at most
// the entry being written (which resume then skips as unparsable). A nil
// checkpoint records nothing.
func (cp *checkpoint) record(key string, r runOut) error {
	if cp == nil {
		return nil
	}
	line, err := json.Marshal(cpEntry{Key: key, Mean: r.mean, Stddev: r.stddev})
	if err != nil {
		return fmt.Errorf("experiment: checkpoint %s: %w", cp.path, err)
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if _, err := fmt.Fprintf(cp.f, "%s\n", line); err != nil {
		return fmt.Errorf("experiment: append to checkpoint %s: %w", cp.path, err)
	}
	if err := cp.f.Sync(); err != nil {
		return fmt.Errorf("experiment: sync checkpoint %s: %w", cp.path, err)
	}
	cp.cache[key] = r
	return nil
}

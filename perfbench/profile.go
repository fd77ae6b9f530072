package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// profiledLayers are the layers whose share of the CPU-profile samples the
// traced run reports as <layer>.self_share.
var profiledLayers = []string{"sim", "kernel", "noise", "network", "mpi", "cosched", "gpfs", "workload", "runtime"}

// selfShares merges the CPU profiles with `go tool pprof -top` and returns
// each layer's share of the samples, attributing a sample to its leaf frame.
func selfShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-sample_index=samples", "-nodecount=1000000", "-nodefraction=0"}, profiles...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(string(out))
}

// parseTop sums the flat (self) column of `pprof -top` output by layer and
// normalizes the sums to shares.
func parseTop(out string) (map[string]float64, error) {
	shares := map[string]float64{}
	total := 0.0
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		shares[layerOf(f[5])] += v
		total += v
	}
	if total == 0 {
		return nil, errors.New("pprof: no samples")
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

// layerOf maps a profiled function to its layer: the coschedsim/internal
// package it belongs to, the Go runtime, the benchmark itself, or other
// (the standard library outside the runtime).
func layerOf(fn string) string {
	const internal = "coschedsim/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return "other"
}

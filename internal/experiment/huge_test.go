package experiment

import (
	"strings"
	"testing"

	"coschedsim/internal/sim"
)

// TestHugeScalingSmoke runs the huge-tier runner at a reduced node count on
// the sharded core: the aggregate runs, the paper-range fit and the
// extrapolation columns must all come out populated and finite.
func TestHugeScalingSmoke(t *testing.T) {
	o := Options{MaxNodes: 24, Calls: 4, Seeds: 1,
		ComputeGrain: 200 * sim.Microsecond, BaseSeed: 1,
		Parallelism: 2, ShardWorkers: 2}
	tab, err := HugeScaling(o)
	if err != nil {
		t.Fatal(err)
	}
	// Paper anchors 8 and 16, one extended point at 24 nodes, for each of
	// the vanilla, prototype and tuned-ALE3D configurations.
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d, want 9:\n%+v", len(tab.Rows), tab.Rows)
	}
	want := []string{"vanilla/paper", "vanilla/paper", "vanilla/huge",
		"proto/paper", "proto/paper", "proto/huge",
		"ale3d/paper", "ale3d/paper", "ale3d/huge"}
	for i, w := range want {
		if tab.RowTags[i] != w {
			t.Fatalf("row tags = %v, want %v", tab.RowTags, want)
		}
	}
	for i, row := range tab.Rows {
		if len(row) != 5 {
			t.Fatalf("row %d has %d columns, want 5", i, len(row))
		}
		procs, mean, fit := row[0], row[1], row[3]
		if procs <= 0 || mean <= 0 {
			t.Fatalf("row %d: degenerate procs=%v mean=%v", i, procs, mean)
		}
		if fit <= 0 {
			t.Fatalf("row %d: non-positive fit value %v", i, fit)
		}
	}
	fits, protoRatio, ale3dRatio := 0, false, false
	for _, n := range tab.Notes {
		if strings.Contains(n, "paper-range fit") {
			fits++
		}
		if strings.Contains(n, "slope ratio vanilla/proto") {
			protoRatio = true
		}
		if strings.Contains(n, "slope ratio vanilla/ale3d") {
			ale3dRatio = true
		}
	}
	if fits != 3 {
		t.Fatalf("want one paper-range fit note per configuration in %v", tab.Notes)
	}
	if !protoRatio || !ale3dRatio {
		t.Fatalf("want a slope-ratio note per non-vanilla configuration in %v", tab.Notes)
	}
}

// TestHugeScalingRejectsTinyRange pins the guard against a MaxNodes too
// small to anchor the fit.
func TestHugeScalingRejectsTinyRange(t *testing.T) {
	o := Options{MaxNodes: 8, Calls: 4, Seeds: 1, BaseSeed: 1}
	if _, err := HugeScaling(o); err == nil {
		t.Fatal("expected an error for a single-point fit range")
	}
}

// TestHugeNodePlan pins the sweep construction: extended points are max/4,
// max/2, max, deduplicated and strictly above the paper anchors.
func TestHugeNodePlan(t *testing.T) {
	paper := hugePaperNodes(1024)
	if want := []int{8, 16, 32, 59}; !equalInts(paper, want) {
		t.Fatalf("paper nodes = %v, want %v", paper, want)
	}
	huge := hugeNodes(1024, paper)
	if want := []int{256, 512, 1024}; !equalInts(huge, want) {
		t.Fatalf("huge nodes = %v, want %v", huge, want)
	}
	// Reduced sizes collapse cleanly: overlapping points dedup away.
	if got := hugeNodes(64, hugePaperNodes(64)); !equalInts(got, []int{64}) {
		t.Fatalf("huge nodes at max 64 = %v, want [64]", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// guardedRows returns every row a guard reads, all with the same values, so
// every wheel/heap ratio is 1.
func guardedRows(eventsPerSec, bytesPerEvent float64) []row {
	var rows []row
	for _, s := range scenarios() {
		for _, core := range []string{"heap", "wheel"} {
			if slices.ContainsFunc(guards, func(g guard) bool { return g.reads(s.name, core) }) {
				rows = append(rows, row{Scenario: s.name, Core: core, Workers: 1,
					EventsPerSec: eventsPerSec, BytesPerEvent: bytesPerEvent})
			}
		}
	}
	return rows
}

// edit applies fn to the scenario's row on core, or to all of its rows when
// core is empty, and returns rows.
func edit(rows []row, scenario, core string, fn func(*row)) []row {
	for i := range rows {
		if rows[i].Scenario == scenario && (core == "" || rows[i].Core == core) {
			fn(&rows[i])
		}
	}
	return rows
}

// checkFails runs check and fails t unless exactly the guards in fail
// failed, each with a verdict that says FAIL when failMsg is set.
func checkFails(t *testing.T, recorded, fresh []row, fail []guard, failMsg bool) {
	t.Helper()
	vs := check(recorded, fresh)
	if len(vs) != len(guards) {
		t.Fatalf("got %d verdicts, want one per guard (%d)", len(vs), len(guards))
	}
	for _, v := range vs {
		wantFail := slices.Contains(fail, v.guard)
		switch {
		case wantFail && (v.ok || failMsg && !strings.Contains(v.String(), "FAIL")):
			t.Errorf("got %q (ok=%v), want a failure", v, v.ok)
		case !wantFail && !v.ok:
			t.Errorf("unrelated guard failed: %v", v)
		}
	}
}

func TestCheckBounds(t *testing.T) {
	events, bytes := guard{"cluster-8", eventsPerSec}, guard{"cluster-8", bytesPerEvent}
	ratio := guard{"cluster-8", wheelOverHeap}
	for _, tc := range []struct {
		name   string
		core   string // the cluster-8 row scaled, or "" for both
		metric string
		factor float64 // fresh value as a multiple of the recorded one
		fail   []guard
	}{
		{"events within bound", "wheel", eventsPerSec, 0.80, nil},
		{"events at bound", "wheel", eventsPerSec, 0.75, nil},
		{"events past bound", "wheel", eventsPerSec, 0.70, []guard{events, ratio}},
		{"events improved", "wheel", eventsPerSec, 1.50, nil},
		{"bytes within bound", "wheel", bytesPerEvent, 1.15, nil},
		{"bytes past bound", "wheel", bytesPerEvent, 1.30, []guard{bytes}},
		{"bytes improved", "wheel", bytesPerEvent, 0.50, nil},
		// A slower host slows both cores: the ratio holds.
		{"host drift", "", eventsPerSec, 0.70, []guard{events}},
		// The heap core speeding up alone lowers the ratio.
		{"ratio within bound", "heap", eventsPerSec, 1.25, nil},
		{"ratio past bound", "heap", eventsPerSec, 1.40, []guard{ratio}},
		{"ratio improved", "heap", eventsPerSec, 0.50, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := edit(guardedRows(1e6, 10), "cluster-8", tc.core, func(r *row) {
				if tc.metric == bytesPerEvent {
					r.BytesPerEvent *= tc.factor
				} else {
					r.EventsPerSec *= tc.factor
				}
			})
			checkFails(t, guardedRows(1e6, 10), fresh, tc.fail, false)
		})
	}
}

func TestCheckFailsMissingOrNonPositiveRows(t *testing.T) {
	rename := func(r *row) { r.Scenario = "renamed" }
	for _, tc := range []struct {
		name           string
		scenario, core string
		recorded       bool // edit the recorded rows, else the fresh ones
		fn             func(*row)
		fail           []string // metrics of the scenario whose guards must fail
	}{
		{"recorded row missing", "node-tick-heavy", "wheel", true, rename, []string{eventsPerSec, wheelOverHeap}},
		{"recorded row on another core", "node-tick-heavy", "wheel", true, func(r *row) { r.Core = "heap" }, []string{eventsPerSec, wheelOverHeap}},
		{"recorded events/s zero", "cluster-8", "wheel", true, func(r *row) { r.EventsPerSec = 0 }, []string{eventsPerSec, wheelOverHeap}},
		{"recorded events/s negative", "cluster-8", "", true, func(r *row) { r.EventsPerSec = -1 }, []string{eventsPerSec, wheelOverHeap}},
		{"recorded bytes/event zero", "jitter-8", "wheel", true, func(r *row) { r.BytesPerEvent = 0 }, []string{bytesPerEvent}},
		{"fresh measurement failed", "jitter-8", "wheel", false, func(r *row) { r.EventsPerSec = 0 }, []string{eventsPerSec}},
		{"recorded heap row missing", "cluster-8", "heap", true, rename, []string{wheelOverHeap}},
		{"fresh heap row missing", "node-tick-heavy", "heap", false, rename, []string{wheelOverHeap}},
		{"fresh heap measurement failed", "cluster-8", "heap", false, func(r *row) { r.EventsPerSec = 0 }, []string{wheelOverHeap}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, fresh := guardedRows(1e6, 10), guardedRows(1e6, 10)
			if tc.recorded {
				edit(rec, tc.scenario, tc.core, tc.fn)
			} else {
				edit(fresh, tc.scenario, tc.core, tc.fn)
			}
			var fail []guard
			for _, m := range tc.fail {
				fail = append(fail, guard{tc.scenario, m})
			}
			checkFails(t, rec, fresh, fail, true)
		})
	}
}

func TestCheckReportsBytesAfterThroughputFailure(t *testing.T) {
	recorded := guardedRows(1e6, 10)
	fresh := guardedRows(1e6, 10)
	for i := range fresh {
		fresh[i].EventsPerSec = 0.5e6 // every throughput guard regresses
	}
	vs := check(recorded, fresh)
	if len(vs) != len(guards) {
		t.Fatalf("got %d verdicts, want one per guard (%d)", len(vs), len(guards))
	}
	for _, v := range vs {
		if v.metric == eventsPerSec && v.ok {
			t.Errorf("%v passed at 0.5x", v)
		}
		if v.metric == bytesPerEvent && (!v.ok || v.fresh != 10) {
			t.Errorf("%v: the bytes/event guard must still be evaluated and pass", v)
		}
	}
}

// TestCommittedResults reads the committed results file: every guarded
// scenario, core and metric must have a positive value, so a missing row
// fails go test and not only make bench-check. Every scenario point must
// have its row too, with the fields its kind carries.
func TestCommittedResults(t *testing.T) {
	path := filepath.Join("..", "..", "results", "bench.json")
	f, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Machine
	if m.CPU == "" || m.NumCPU < 1 || m.GOMAXPROCS < 1 || m.GoVersion == "" || m.Date == "" {
		t.Errorf("%s does not name its machine: %+v", path, m)
	}
	for _, v := range check(f.Rows, f.Rows) {
		if !v.ok {
			t.Errorf("%s: %v", path, v)
		}
	}
	for _, s := range scenarios() {
		if f.Scenarios[s.name] == "" {
			t.Errorf("%s: no description of scenario %s", path, s.name)
		}
		for _, p := range s.points {
			var r *row
			for i := range f.Rows {
				if f.Rows[i].Scenario == s.name && f.Rows[i].Core == p.core && f.Rows[i].Workers == p.workers {
					r = &f.Rows[i]
				}
			}
			switch {
			case r == nil:
				t.Errorf("%s: no row for %s %s x%d; run make bench-record", path, s.name, p.core, p.workers)
			case r.EventsPerSec <= 0 || r.NsPerEvent <= 0 || r.Iterations < 1:
				t.Errorf("%s: row %+v is not a measurement", path, *r)
			case s.cluster && r.WallMsPerRun <= 0:
				t.Errorf("%s: cluster row %s %s x%d has no wall time", path, s.name, p.core, p.workers)
			case p.core == "sharded" && r.Windows == 0:
				t.Errorf("%s: sharded row %s x%d has no window statistics", path, s.name, p.workers)
			}
		}
	}
}

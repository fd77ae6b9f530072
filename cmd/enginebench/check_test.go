package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// guardedRows returns one wheel row per guarded scenario.
func guardedRows(eventsPerSec, bytesPerEvent float64) []row {
	var rows []row
	seen := map[string]bool{}
	for _, g := range guards {
		if !seen[g.scenario] {
			seen[g.scenario] = true
			rows = append(rows, row{Scenario: g.scenario, Core: "wheel", Workers: 1,
				EventsPerSec: eventsPerSec, BytesPerEvent: bytesPerEvent})
		}
	}
	return rows
}

// edit applies fn to the scenario's rows and returns them.
func edit(rows []row, scenario string, fn func(*row)) []row {
	for i := range rows {
		if rows[i].Scenario == scenario {
			fn(&rows[i])
		}
	}
	return rows
}

func TestCheckBounds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		metric string
		factor float64 // fresh value as a multiple of the recorded one
		ok     bool
	}{
		{"events within bound", eventsPerSec, 0.80, true},
		{"events at bound", eventsPerSec, 0.75, true},
		{"events past bound", eventsPerSec, 0.70, false},
		{"events improved", eventsPerSec, 1.50, true},
		{"bytes within bound", bytesPerEvent, 1.15, true},
		{"bytes past bound", bytesPerEvent, 1.30, false},
		{"bytes improved", bytesPerEvent, 0.50, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := edit(guardedRows(1e6, 10), "cluster-8", func(r *row) {
				if tc.metric == bytesPerEvent {
					r.BytesPerEvent *= tc.factor
				} else {
					r.EventsPerSec *= tc.factor
				}
			})
			vs := check(guardedRows(1e6, 10), fresh)
			if len(vs) != len(guards) {
				t.Fatalf("got %d verdicts, want one per guard (%d)", len(vs), len(guards))
			}
			for _, v := range vs {
				want := true
				if v.scenario == "cluster-8" && v.metric == tc.metric {
					want = tc.ok
				}
				if v.ok != want {
					t.Errorf("%v: ok=%v, want %v", v, v.ok, want)
				}
			}
		})
	}
}

func TestCheckFailsMissingOrNonPositiveRows(t *testing.T) {
	for _, tc := range []struct {
		name     string
		g        guard
		recorded bool // edit the recorded rows, else the fresh ones
		fn       func(*row)
	}{
		{"recorded row missing", guard{"node-tick-heavy", eventsPerSec}, true, func(r *row) { r.Scenario = "renamed" }},
		{"recorded row on another core", guard{"node-tick-heavy", eventsPerSec}, true, func(r *row) { r.Core = "heap" }},
		{"recorded events/s zero", guard{"cluster-8", eventsPerSec}, true, func(r *row) { r.EventsPerSec = 0 }},
		{"recorded events/s negative", guard{"cluster-8", eventsPerSec}, true, func(r *row) { r.EventsPerSec = -1 }},
		{"recorded bytes/event zero", guard{"jitter-8", bytesPerEvent}, true, func(r *row) { r.BytesPerEvent = 0 }},
		{"fresh measurement failed", guard{"jitter-8", eventsPerSec}, false, func(r *row) { r.EventsPerSec = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, fresh := guardedRows(1e6, 10), guardedRows(1e6, 10)
			if tc.recorded {
				edit(rec, tc.g.scenario, tc.fn)
			} else {
				edit(fresh, tc.g.scenario, tc.fn)
			}
			for _, v := range check(rec, fresh) {
				switch {
				case v.guard == tc.g && (v.ok || !strings.Contains(v.String(), "FAIL")):
					t.Errorf("got %q (ok=%v), want a failure", v, v.ok)
				case v.guard != tc.g && !v.ok:
					t.Errorf("unrelated guard failed: %v", v)
				}
			}
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

package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func newTestFlagSet() (*flag.FlagSet, *bool, *int) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	full := fs.Bool("full", false, "")
	seeds := fs.Int("seeds", 0, "")
	return fs, full, seeds
}

func TestParseInterleaved(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		names []string
		full  bool
		seeds int
	}{
		{[]string{"fig3"}, []string{"fig3"}, false, 0},
		{[]string{"fig3", "-full"}, []string{"fig3"}, true, 0},
		{[]string{"-full", "fig3"}, []string{"fig3"}, true, 0},
		{[]string{"fig3", "-seeds", "3", "t2"}, []string{"fig3", "t2"}, false, 3},
		{[]string{"-full", "fig3", "-seeds", "5", "t2", "t3"}, []string{"fig3", "t2", "t3"}, true, 5},
		{[]string{"-full", "-seeds=2"}, nil, true, 2},
		{[]string{}, nil, false, 0},
		{[]string{"-"}, []string{"-"}, false, 0},
	} {
		fs, full, seeds := newTestFlagSet()
		names, err := parseInterleaved(fs, tc.args)
		if err != nil {
			t.Fatalf("args %v: %v", tc.args, err)
		}
		if !reflect.DeepEqual(names, tc.names) {
			t.Errorf("args %v: names = %v, want %v", tc.args, names, tc.names)
		}
		if *full != tc.full || *seeds != tc.seeds {
			t.Errorf("args %v: full=%v seeds=%d, want full=%v seeds=%d",
				tc.args, *full, *seeds, tc.full, tc.seeds)
		}
	}
}

func TestParseInterleavedBadFlag(t *testing.T) {
	fs, _, _ := newTestFlagSet()
	if _, err := parseInterleaved(fs, []string{"fig3", "-nope"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// FuzzParseInterleaved checks the interleaved flag parser on arbitrary
// space-separated argument lists: it must terminate, and every name it
// returns must be one of the input tokens.
func FuzzParseInterleaved(f *testing.F) {
	for _, seed := range []string{
		"fig3 -full", "-full fig3 -seeds 5 t2 t3", "-full -seeds=2", "-", "--", "-- -full fig3",
		"fig3  t2", "fig3 -nope", "-seeds", "-seeds x", "-h", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		var args []string
		if line != "" {
			args = strings.Split(line, " ")
		}
		fs, _, _ := newTestFlagSet()
		fs.SetOutput(io.Discard)
		type result struct {
			names []string
			err   error
		}
		done := make(chan result, 1)
		go func() {
			names, err := parseInterleaved(fs, args)
			done <- result{names, err}
		}()
		var r result
		select {
		case r = <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("parseInterleaved(%q) did not terminate", args)
		}
		if r.err != nil {
			return
		}
		tokens := make(map[string]bool, len(args))
		for _, a := range args {
			tokens[a] = true
		}
		for _, n := range r.names {
			if !tokens[n] {
				t.Fatalf("parseInterleaved(%q) returned %q, not an input token", args, n)
			}
		}
	})
}

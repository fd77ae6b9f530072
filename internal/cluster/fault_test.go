package cluster

import (
	"fmt"
	"testing"

	"coschedsim/internal/fault"
	"coschedsim/internal/mpi"
	"coschedsim/internal/sim"
)

// faultTrace runs a fixed Allreduce loop on cfg, tolerating a job that dies
// mid-run: it returns rank 0's completed per-call times, whether the job
// completed, the completion/termination time, the p2p send count, and the
// cluster's fault report — a fingerprint sensitive to any divergence in the
// fault schedules or the resilience responses.
func faultTrace(t *testing.T, cfg Config, calls int) ([]sim.Time, bool, sim.Time, uint64, FaultReport) {
	t.Helper()
	c := MustBuild(cfg)
	var times []sim.Time
	done, ok := c.Launch(allreduceLoop(calls, &times), 10*sim.Minute)
	return times, ok, done, c.Job.P2PSends(), c.FaultReport()
}

const detect = 50 * sim.Microsecond

func TestFaultDropRetryCompletes(t *testing.T) {
	cfg := Vanilla(4, 8, 7)
	cfg.Faults = &fault.Config{Policy: fault.PolicyRetry, DropRate: 0.02, DetectLatency: detect}
	cfg.MPI.SendTimeout = 200 * sim.Microsecond
	cfg.MPI.SendRetries = 6
	times, ok, _, _, rep := faultTrace(t, cfg, 40)
	if !ok {
		t.Fatalf("drop rate 2%% with 6 retries did not complete (report %+v)", rep)
	}
	if len(times) != 40 {
		t.Fatalf("recorded %d calls, want 40", len(times))
	}
	if rep.Dropped == 0 || rep.Retries == 0 {
		t.Fatalf("no drops/retries recorded under 2%% drop rate: %+v", rep)
	}
	if rep.LostRanks != 0 || rep.AbortedRanks != 0 {
		t.Fatalf("ranks died in a retry-absorbed run: %+v", rep)
	}
}

func TestFaultDropExhaustionAborts(t *testing.T) {
	cfg := Vanilla(2, 8, 7)
	cfg.Faults = &fault.Config{Policy: fault.PolicyRetry, DropRate: 1, DetectLatency: detect}
	cfg.MPI.SendTimeout = 50 * sim.Microsecond
	cfg.MPI.SendRetries = 2
	_, ok, _, _, rep := faultTrace(t, cfg, 40)
	if ok {
		t.Fatal("run with 100% drop rate completed")
	}
	if rep.Dropped == 0 {
		t.Fatalf("no drops recorded: %+v", rep)
	}
	if rep.AbortedRanks != 16 {
		t.Fatalf("AbortedRanks = %d, want all 16 after retry exhaustion", rep.AbortedRanks)
	}
}

func TestFaultCrashAllNodesLosesAllRanks(t *testing.T) {
	cfg := Vanilla(2, 8, 7)
	cfg.Faults = &fault.Config{
		Policy: fault.PolicyAbort, CrashProb: 1, CrashWindow: 500 * sim.Microsecond,
		DetectLatency: detect,
	}
	_, ok, _, _, rep := faultTrace(t, cfg, 400)
	if ok {
		t.Fatal("run completed although every node crashed")
	}
	if rep.Crashes != 2 {
		t.Fatalf("Crashes = %d, want 2", rep.Crashes)
	}
	// The first crash's survivors are abort-broadcast at detect latency,
	// which typically beats the second node's own crash instant — so ranks
	// split between "lost with their node" and "aborted as survivors", and
	// every rank must be accounted one way or the other.
	if rep.LostRanks == 0 {
		t.Fatalf("no ranks lost to a crash: %+v", rep)
	}
	if rep.LostRanks+rep.AbortedRanks != 16 {
		t.Fatalf("lost %d + aborted %d != 16 ranks", rep.LostRanks, rep.AbortedRanks)
	}
}

// TestFaultCrashReplanOnSurvivors finds a seed where only part of the
// cluster crashes and checks the co-scheduler re-planned the survivors
// (PolicyReplan) before they were released.
func TestFaultCrashReplanOnSurvivors(t *testing.T) {
	fcfg := fault.Config{
		Policy: fault.PolicyReplan, CrashProb: 0.5, CrashWindow: 500 * sim.Microsecond,
		DetectLatency: detect, ReplanDrain: 500 * sim.Microsecond,
	}
	const nodes = 4
	seed := int64(-1)
	for s := int64(1); s <= 50; s++ {
		inj := fault.NewInjector(fcfg, s, nodes, 0)
		if c := inj.Crashes(); c >= 1 && c < nodes {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed in 1..50 yields a partial crash at p=0.5")
	}
	cfg := Prototype(nodes, 8, seed)
	cfg.Faults = &fcfg
	_, ok, _, _, rep := faultTrace(t, cfg, 400)
	if ok {
		t.Fatal("run completed although nodes crashed")
	}
	if rep.Replans == 0 {
		t.Fatalf("PolicyReplan produced no replans on survivors: %+v", rep)
	}
	if rep.LostRanks == 0 || rep.LostRanks == int64(nodes*8) {
		t.Fatalf("LostRanks = %d, want a partial loss", rep.LostRanks)
	}
	if rep.AbortedRanks == 0 {
		t.Fatalf("survivors were never released: %+v", rep)
	}
	if rep.LostRanks+rep.AbortedRanks != int64(nodes*8) {
		t.Fatalf("lost %d + aborted %d != %d ranks", rep.LostRanks, rep.AbortedRanks, nodes*8)
	}
}

func TestFaultStallSupervisorRestarts(t *testing.T) {
	cfg := Vanilla(2, 8, 7)
	cfg.Faults = &fault.Config{
		Policy: fault.PolicyRetry, StallProb: 1, StallWindow: sim.Millisecond,
		RestartDelay: 100 * sim.Microsecond, CheckPeriod: 50 * sim.Microsecond,
		DetectLatency: detect,
	}
	_, ok, _, _, rep := faultTrace(t, cfg, 400)
	if !ok {
		t.Fatal("stall faults (no rank deaths) should not prevent completion")
	}
	if rep.Stalls == 0 || rep.Restarts == 0 {
		t.Fatalf("stalls=%d restarts=%d, want both > 0", rep.Stalls, rep.Restarts)
	}
	if rep.Restarts != rep.Stalls {
		t.Fatalf("restarts=%d != stalls=%d: supervisor missed a death", rep.Restarts, rep.Stalls)
	}
	if rep.RecoveryTime <= 0 {
		t.Fatalf("RecoveryTime = %v, want > 0", rep.RecoveryTime)
	}
}

func TestFaultValidateDetectLatencyBelowLookahead(t *testing.T) {
	cfg := Vanilla(2, 8, 7)
	cfg.Faults = &fault.Config{Policy: fault.PolicyRetry, DropRate: 0.01, DetectLatency: sim.Microsecond}
	if err := cfg.Validate(); err == nil {
		t.Fatal("DetectLatency below the fabric lookahead accepted")
	}
	cfg.Faults.DetectLatency = detect
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid fault config rejected: %v", err)
	}
}

// TestFaultSendAccounting checks that every fabric attempt, delivered or
// dropped, is either a message's first send or a counted retransmit:
// Messages+Dropped == P2PSends+Retries on the heap, wheel and sharded
// cores. Fault-free presets pin the identity with nothing dropped; the
// abort configuration pins that a retransmit scheduled before the job
// aborted, and so never made, is not counted.
func TestFaultSendAccounting(t *testing.T) {
	abort := func(seed int64) Config {
		cfg := Vanilla(4, 16, seed)
		cfg.Faults = &fault.Config{Policy: fault.PolicyRetry, DropRate: 0.05, DetectLatency: detect}
		cfg.MPI.SendTimeout = 200 * sim.Microsecond
		cfg.MPI.SendRetries = 1
		return cfg
	}
	type accountingCase struct {
		name   string
		cfg    Config
		aborts bool
	}
	cases := []accountingCase{
		{"vanilla", Vanilla(4, 16, 1), false},
		{"prototype", Prototype(4, 16, 1), false},
		{"ale3d-tuned", ALE3DTuned(4, 16, 1), false},
	}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, accountingCase{fmt.Sprintf("abort-seed%d", seed), abort(seed), true})
	}
	cores := []struct {
		name    string
		core    sim.Core
		workers int
	}{{"heap", sim.CoreHeap, 0}, {"wheel", sim.CoreWheel, 0}, {"sharded@2", sim.CoreWheel, 2}}
	for _, tc := range cases {
		for _, core := range cores {
			t.Run(tc.name+"/"+core.name, func(t *testing.T) {
				prev := sim.DefaultCore
				sim.DefaultCore = core.core
				defer func() { sim.DefaultCore = prev }()
				cfg := tc.cfg
				cfg.IntraRunWorkers = core.workers
				c := MustBuild(cfg)
				if (c.Group != nil) != (core.workers > 0) {
					t.Fatalf("sharded=%v, want %v", c.Group != nil, core.workers > 0)
				}
				_, ok := c.Launch(func(r *mpi.Rank) {
					var loop func(i int)
					loop = func(i int) {
						if i == 60 {
							r.Done()
							return
						}
						r.Compute(sim.Millisecond, func() {
							r.Allreduce(1, func(float64) { loop(i + 1) })
						})
					}
					loop(0)
				}, 10*sim.Minute)
				if ok == tc.aborts {
					t.Fatalf("completed=%v, want %v", ok, !tc.aborts)
				}
				net, fs := c.Fabric.Stats(), c.Job.FaultStats()
				if net.Dropped != fs.Dropped {
					t.Errorf("fabric dropped %d, MPI dropped %d", net.Dropped, fs.Dropped)
				}
				attempts, sends := net.Messages+net.Dropped, c.Job.P2PSends()+fs.Retries
				if attempts != sends {
					t.Errorf("fabric attempts (Messages %d + Dropped %d) = %d, sends (P2PSends %d + Retries %d) = %d",
						net.Messages, net.Dropped, attempts, c.Job.P2PSends(), fs.Retries, sends)
				}
			})
		}
	}
}

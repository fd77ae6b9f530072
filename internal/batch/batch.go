// Package batch implements a spatial scheduler — the paper's related-work
// category 2 (NQS, LoadLeveler, PBS): jobs request dedicated node counts,
// wait in a queue, and run on exclusive node sets. The paper's position is
// that spatial schedulers are *complementary*: "our techniques may be
// applied between invocations of any of the aforementioned Spatial
// schedulers". This package demonstrates exactly that composition — each
// batch job can carry its own co-scheduling priority class (the
// MP_PRIORITY mechanism), started when the job launches and torn down when
// it completes.
//
// The queue discipline is FCFS with EASY backfill: a job may jump the queue
// only if, by the user-supplied runtime estimates, it cannot delay the
// reservation of the job at the head.
package batch

import (
	"fmt"
	"sort"

	"coschedsim/internal/cosched"
	"coschedsim/internal/kernel"
	"coschedsim/internal/mpi"
	"coschedsim/internal/network"
	"coschedsim/internal/sim"
)

// Request describes one batch job.
type Request struct {
	// Name identifies the job in results.
	Name string
	// Nodes is the dedicated node count requested.
	Nodes int
	// TasksPerNode places that many ranks on each allocated node.
	TasksPerNode int
	// Estimate is the user's runtime estimate (EASY backfill relies on it;
	// jobs exceeding their estimate are NOT killed, as most real sites
	// configure, so estimates only affect scheduling).
	Estimate sim.Time
	// Cosched, when non-nil, runs the job under its own co-scheduler class
	// for the duration of the job (the POE MP_PRIORITY path).
	Cosched *cosched.Params
	// MPI overrides the runtime configuration (zero value: scheduler
	// default).
	MPI *mpi.Config
	// Program is the rank program; it must eventually call Rank.Done.
	Program func(*mpi.Rank)
}

// Validate reports an error for malformed requests.
func (r Request) Validate() error {
	switch {
	case r.Name == "":
		return fmt.Errorf("batch: job with empty name")
	case r.Nodes <= 0:
		return fmt.Errorf("batch: job %s requests %d nodes", r.Name, r.Nodes)
	case r.TasksPerNode <= 0:
		return fmt.Errorf("batch: job %s requests %d tasks/node", r.Name, r.TasksPerNode)
	case r.Estimate <= 0:
		return fmt.Errorf("batch: job %s needs a positive runtime estimate", r.Name)
	case r.Program == nil:
		return fmt.Errorf("batch: job %s has no program", r.Name)
	}
	if r.Cosched != nil {
		return r.Cosched.Validate()
	}
	return nil
}

// Record is the outcome of one completed job.
type Record struct {
	Name      string
	Submitted sim.Time
	Started   sim.Time
	Finished  sim.Time
	Nodes     []int // node IDs allocated
	Backfill  bool  // ran ahead of an earlier-submitted job
}

// Wait returns the queueing delay.
func (r Record) Wait() sim.Time { return r.Started - r.Submitted }

// Runtime returns the execution time.
func (r Record) Runtime() sim.Time { return r.Finished - r.Started }

type pending struct {
	req       Request
	submitted sim.Time
	seq       int
}

type running struct {
	req   Request
	rec   *Record
	nodes []int
}

// Scheduler owns a pool of nodes and multiplexes batch jobs onto them.
type Scheduler struct {
	eng    *sim.Engine
	fabric *network.Fabric
	nodes  []*kernel.Node
	clocks []network.Clock
	defMPI mpi.Config

	free    map[int]bool // node ID -> free
	queue   []pending
	active  map[string]*running
	done    []Record
	seq     int
	stopped bool
}

// NewScheduler builds a spatial scheduler over the given nodes. The clocks
// slice parallels nodes and supplies each job's co-scheduler time base.
func NewScheduler(eng *sim.Engine, fabric *network.Fabric, nodes []*kernel.Node,
	clocks []network.Clock, defaultMPI mpi.Config) (*Scheduler, error) {
	if len(nodes) == 0 || len(nodes) != len(clocks) {
		return nil, fmt.Errorf("batch: need matching non-empty nodes and clocks")
	}
	if err := defaultMPI.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		eng:    eng,
		fabric: fabric,
		nodes:  nodes,
		clocks: clocks,
		defMPI: defaultMPI,
		free:   map[int]bool{},
		active: map[string]*running{},
	}
	for _, n := range nodes {
		s.free[n.ID()] = true
	}
	return s, nil
}

// FreeNodes reports currently idle node count.
func (s *Scheduler) FreeNodes() int { return len(s.free) }

// QueueLength reports waiting jobs.
func (s *Scheduler) QueueLength() int { return len(s.queue) }

// Completed returns records of finished jobs in completion order.
func (s *Scheduler) Completed() []Record { return s.done }

// Submit enqueues a job and schedules what fits.
func (s *Scheduler) Submit(req Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if req.Nodes > len(s.nodes) {
		return fmt.Errorf("batch: job %s requests %d nodes, cluster has %d", req.Name, req.Nodes, len(s.nodes))
	}
	if req.TasksPerNode > s.nodes[0].NumCPUs() {
		return fmt.Errorf("batch: job %s requests %d tasks/node on %d-way nodes",
			req.Name, req.TasksPerNode, s.nodes[0].NumCPUs())
	}
	if _, dup := s.active[req.Name]; dup {
		return fmt.Errorf("batch: job %s already running", req.Name)
	}
	s.queue = append(s.queue, pending{req: req, submitted: s.eng.Now(), seq: s.seq})
	s.seq++
	s.trySchedule()
	return nil
}

// allocate removes count nodes from the free pool (lowest IDs first, for
// determinism).
func (s *Scheduler) allocate(count int) []int {
	ids := make([]int, 0, len(s.free))
	for id := range s.free {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ids = ids[:count]
	for _, id := range ids {
		delete(s.free, id)
	}
	return ids
}

// shadowTime estimates when the head job's reservation could start: the
// time by which enough running jobs will have finished (by their
// estimates) to free its node count.
func (s *Scheduler) shadowTime(needed int) sim.Time {
	type end struct {
		at    sim.Time
		nodes int
	}
	var ends []end
	for _, r := range s.active {
		est := r.rec.Started + r.req.Estimate
		if est < s.eng.Now() {
			est = s.eng.Now() // overrunning its estimate; assume imminent
		}
		ends = append(ends, end{est, len(r.nodes)})
	}
	// Break equal-finish-time ties by node count so the estimate does not
	// depend on s.active's map iteration order.
	sort.Slice(ends, func(i, j int) bool {
		if ends[i].at != ends[j].at {
			return ends[i].at < ends[j].at
		}
		return ends[i].nodes < ends[j].nodes
	})
	avail := len(s.free)
	for _, e := range ends {
		if avail >= needed {
			break
		}
		avail += e.nodes
		if avail >= needed {
			return e.at
		}
	}
	return s.eng.Now()
}

// trySchedule starts the head job if it fits, then EASY-backfills.
func (s *Scheduler) trySchedule() {
	if s.stopped {
		return
	}
	// Start queue-head jobs while they fit.
	for len(s.queue) > 0 && s.queue[0].req.Nodes <= len(s.free) {
		p := s.queue[0]
		s.queue = s.queue[1:]
		s.start(p, false)
	}
	if len(s.queue) == 0 {
		return
	}
	// EASY backfill: the head is blocked; its reservation begins at shadow.
	shadow := s.shadowTime(s.queue[0].req.Nodes)
	// Nodes beyond the head's requirement at shadow time are free for any
	// backfill; shorter jobs may also use reserved nodes if they finish (by
	// estimate) before shadow.
	for i := 1; i < len(s.queue); {
		p := s.queue[i]
		fits := p.req.Nodes <= len(s.free)
		safe := s.eng.Now()+p.req.Estimate <= shadow ||
			p.req.Nodes <= len(s.free)-s.queue[0].req.Nodes
		if fits && safe {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.start(p, true)
			continue
		}
		i++
	}
}

// start launches a job on an allocation.
func (s *Scheduler) start(p pending, backfill bool) {
	ids := s.allocate(p.req.Nodes)
	rec := &Record{
		Name:      p.req.Name,
		Submitted: p.submitted,
		Started:   s.eng.Now(),
		Nodes:     ids,
		Backfill:  backfill,
	}
	run := &running{req: p.req, rec: rec, nodes: ids}
	s.active[p.req.Name] = run

	// Per-job co-scheduler class, as POE starts one per job.
	var registry mpi.Registry
	if p.req.Cosched != nil {
		cs := cosched.MustNew(*p.req.Cosched)
		for _, id := range ids {
			cs.AddNode(s.nodes[id], s.clocks[id])
		}
		registry = cs
	}
	cfg := s.defMPI
	if p.req.MPI != nil {
		cfg = *p.req.MPI
	}
	job := mpi.MustJob(s.fabric, cfg, registry)
	for _, id := range ids {
		for cpu := 0; cpu < p.req.TasksPerNode; cpu++ {
			job.AddRank(s.nodes[id], cpu)
		}
	}
	job.OnComplete(func() {
		rec.Finished = s.eng.Now()
		s.done = append(s.done, *rec)
		delete(s.active, p.req.Name)
		for _, id := range ids {
			s.free[id] = true
		}
		s.trySchedule()
	})
	job.Launch(p.req.Program)
}

// Stop prevents further scheduling (running jobs finish normally).
func (s *Scheduler) Stop() { s.stopped = true }

// Idle reports whether nothing is queued or running.
func (s *Scheduler) Idle() bool { return len(s.queue) == 0 && len(s.active) == 0 }

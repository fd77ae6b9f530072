// Package cosched implements the paper's co-scheduler: a per-node daemon
// that cycles the dispatch priority of a parallel job's registered task
// processes between a favored and an unfavored value on a fixed period,
// with window boundaries aligned to the node's clock so that — given the
// switch's globally synchronized time — every node favors and unfavors the
// job at the same instants with no inter-node communication.
//
// The administrative interface mirrors /etc/poe.priority: one record per
// priority class naming the user allowed to use it and the scheduling
// parameters. Registration of task processes arrives over the MPI library's
// control pipe (the mpi.Registry interface), as do the attach/detach escape
// requests applications use around I/O phases.
package cosched

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"

	"coschedsim/internal/kernel"
	"coschedsim/internal/sim"
)

// Params is one priority class: the scheduling recipe the co-scheduler
// applies to a job. The paper settles on favored 30 / unfavored 100 with a
// 5 second period at 90% duty for the benchmark, and favored 41 (just above
// GPFS's mmfsd at 40) for I/O-heavy production codes.
type Params struct {
	// Class is the priority class name users request via MP_PRIORITY.
	Class string
	// UserID restricts who may use the class (-1: anyone).
	UserID int
	// Favored is the priority given during the favored window.
	Favored kernel.Priority
	// Unfavored is the priority outside the favored window.
	Unfavored kernel.Priority
	// Period is the full scheduling cycle length.
	Period sim.Time
	// Duty is the fraction of each period spent favored (0 < Duty < 1).
	Duty float64
	// SelfPriority is the co-scheduler daemon's own priority ("an even
	// more favored priority"); it sleeps most of the time.
	SelfPriority kernel.Priority
	// AdjustCost is the CPU consumed per priority-adjustment pass.
	AdjustCost sim.Time
	// NormalPriority is what detached/unregistered tasks revert to.
	NormalPriority kernel.Priority
	// MaxFineGrainExtension caps how far a favored window may be extended
	// per period by fine-grain region hints (the paper's §7 proposal);
	// zero disables the feature. Must leave an unfavored remainder.
	MaxFineGrainExtension sim.Time
}

// HintAwareParams enables the fine-grain region extension on top of the
// default recipe, budgeting half of the unfavored tail.
func HintAwareParams() Params {
	p := DefaultParams()
	p.Class = "hint-aware"
	p.MaxFineGrainExtension = sim.Time(float64(p.Period) * (1 - p.Duty) / 2)
	return p
}

// DefaultParams is the benchmark recipe the paper converged on: favored 30,
// unfavored 100, 5s window, 90% duty.
func DefaultParams() Params {
	return Params{
		Class:          "benchmark",
		UserID:         -1,
		Favored:        kernel.PrioFavored,
		Unfavored:      kernel.PrioUnfavored,
		Period:         5 * sim.Second,
		Duty:           0.90,
		SelfPriority:   kernel.PrioCosched,
		AdjustCost:     50 * sim.Microsecond,
		NormalPriority: kernel.PrioUserNormal,
	}
}

// GangParams models a classic gang scheduler (the paper's related-work
// category 1, e.g. the NQS gang scheduler with its 10-minute default
// quantum, scaled down): the job is co-scheduled as a gang on a coarse
// quantum, but during its quantum it runs at ordinary *user* priority — a
// gang scheduler multiplexes jobs against each other, it does not boost a
// job above the operating system's own daemons. The paper's §6 point, which
// experiment abl-gang demonstrates: such time quanta cannot address
// fine-grain context-switch interference.
func GangParams() Params {
	p := DefaultParams()
	p.Class = "gang"
	p.Favored = 91             // ordinary user priority: daemons still win
	p.Unfavored = 120          // suspended while another gang would run
	p.Period = 20 * sim.Second // a scaled-down "minutes" quantum
	p.Duty = 0.95              // dedicated machine: the job owns most quanta
	return p
}

// IOAwareParams is the production recipe: favored priority just above
// mmfsd's 40 so I/O daemons can always preempt the application.
func IOAwareParams() Params {
	p := DefaultParams()
	p.Class = "production"
	p.Favored = kernel.PrioFavoredIO
	return p
}

// Validate reports an error for unusable parameter sets. It refuses
// duty cycles of 100%: the paper reports that starving system daemons
// completely can leave nodes recoverable only by reboot.
func (p Params) Validate() error {
	switch {
	case p.Class == "":
		return fmt.Errorf("cosched: empty class name")
	case p.Period <= 0:
		return fmt.Errorf("cosched: class %s: period must be positive", p.Class)
	case !(p.Duty > 0 && p.Duty < 1): // NaN fails both comparisons
		return fmt.Errorf("cosched: class %s: duty %.2f outside (0,1) — a 100%% duty cycle starves system daemons (the paper had to reboot nodes)", p.Class, p.Duty)
	case !p.Favored.Better(p.Unfavored):
		return fmt.Errorf("cosched: class %s: favored %v must be better than unfavored %v", p.Class, p.Favored, p.Unfavored)
	case !p.SelfPriority.Better(p.Favored):
		return fmt.Errorf("cosched: class %s: the co-scheduler itself (%v) must be more favored than the tasks (%v)", p.Class, p.SelfPriority, p.Favored)
	case p.AdjustCost < 0:
		return fmt.Errorf("cosched: class %s: negative adjust cost", p.Class)
	}
	return validateHints(p)
}

// ParseAdminFile parses an /etc/poe.priority-style file. Each record is
//
//	class:uid:favored:unfavored:period_seconds:favored_percent
//
// '#' starts a comment; blank lines are ignored; uid -1 means any user. The
// uid and the two priorities are integers; the period and the percentage
// are finite decimals. Every record must pass Validate.
func ParseAdminFile(text string) ([]Params, error) {
	var out []Params
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Split(line, ":")
		if len(fields) != 6 {
			return nil, fmt.Errorf("cosched: line %d: want 6 ':'-separated fields, got %d", lineNo, len(fields))
		}
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		var ints [3]int
		for i, f := range fields[1:4] {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("cosched: line %d field %d: want an integer: %v", lineNo, i+2, err)
			}
			ints[i] = v
		}
		var reals [2]float64
		for i, f := range fields[4:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("cosched: line %d field %d: want a finite number, got %q", lineNo, i+5, f)
			}
			reals[i] = v
		}
		if reals[0]*float64(sim.Second) >= math.MaxInt64 {
			return nil, fmt.Errorf("cosched: line %d: period %gs overflows simulated time", lineNo, reals[0])
		}
		p := DefaultParams()
		p.Class = fields[0]
		p.UserID = ints[0]
		p.Favored = kernel.Priority(ints[1])
		p.Unfavored = kernel.Priority(ints[2])
		p.Period = sim.Time(reals[0] * float64(sim.Second))
		p.Duty = reals[1] / 100
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("cosched: line %d: %w", lineNo, err)
		}
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cosched: line %d: %w", lineNo+1, err)
	}
	return out, nil
}

// LookupClass finds the record matching the requested class and user, the
// way POE searches /etc/poe.priority at job start. A uid of -1 in the file
// matches any user. Returns an error mirroring POE's attention message when
// no record matches (the job then runs un-co-scheduled).
func LookupClass(records []Params, class string, uid int) (Params, error) {
	for _, p := range records {
		if p.Class == class && (p.UserID == -1 || p.UserID == uid) {
			return p, nil
		}
	}
	return Params{}, fmt.Errorf("cosched: no priority class %q for uid %d; job will run without co-scheduling", class, uid)
}

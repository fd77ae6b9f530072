package mpi

// Hardware-assisted collectives implement the paper's second §7 proposal:
// "combine the techniques described in this paper with complementary
// techniques designed to improve fine-grain parallel processing (e.g.,
// hardware assisted collectives)". The switch combines contributions
// in-fabric: each task performs one send and one blocking wait, with no
// software tree — so there are log2(N) fewer scheduling points for OS
// noise to hit, at the price of a fixed combine latency.

// hwSource is the pseudo-rank messages from the switch's combine engine
// carry as their source.
const hwSource = -2

// hwOp accumulates one in-flight hardware Allreduce.
type hwOp struct {
	count int
	sum   float64
}

// hwContribute registers rank r's contribution; when the last arrives the
// switch fans the result out to every rank after the combine latency,
// scheduled through the last contributor's node.
func (j *Job) hwContribute(r *Rank, tag int, v float64) {
	if j.hw == nil {
		j.hw = map[int]*hwOp{}
	}
	op := j.hw[tag]
	if op == nil {
		op = &hwOp{}
		j.hw[tag] = op
	}
	op.sum += v
	op.count++
	if op.count < len(j.ranks) {
		return
	}
	delete(j.hw, tag)
	result := op.sum
	lat := j.cfg.HWCollectiveLatency
	key := msgKey{src: hwSource, tag: tag}
	r.node.Sched().After(lat, func() {
		for i := range j.ranks {
			j.ranks[i].deliver(key, message{value: result, bytes: j.cfg.ElemBytes})
		}
	})
}

// hwAllreduce is the offloaded Allreduce path: contribute, then wait for
// the switch's result message.
func (r *Rank) hwAllreduce(value float64, then func(sum float64)) {
	base := r.nextTagBase()
	r.thread.Run(r.job.cfg.SendOverhead, func() {
		r.job.hwContribute(r, base, value)
		r.Recv(hwSource, base, then)
	})
}

// hwEnabled reports whether the offload path is configured.
func (c Config) hwEnabled() bool {
	return c.HardwareCollectives && c.HWCollectiveLatency > 0
}

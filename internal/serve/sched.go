package serve

import (
	"errors"
	"slices"
	"sync"
)

// The scheduler feeds the server's one pool of execution slots
// (Config.Workers) with two priority lanes and weighted-fair queueing across
// tenants. It is what makes a 10⁴-point batch sweep unable to starve an
// interactive request:
//
//   - Lane 0 (interactive) holds characterise and compose jobs; lane 1
//     (batch) holds sweeps. Slots always drain lane 0 first — strict
//     priority, safe because interactive jobs are short by construction.
//   - A job is granted in units: one point per grant when the job runs in
//     process, the whole job when Config.Runner executes it or a compose has
//     no spec legs. A job stays at the head of its tenant's FIFO until its
//     last unit is granted, so a sweep's points go out in order.
//   - Within a lane, each tenant has a FIFO of jobs and a virtual time that
//     advances by 1/weight per unit granted; the tenant with the lowest
//     virtual time goes next. A tenant submitting ten jobs against a tenant
//     submitting one alternates 1:1 (at equal weight), not 10:1.
//   - Preemption is per point: a queued interactive job waits at most for
//     the points already in flight, one per slot, whatever the batch
//     backlog, and no work is killed to make room.
//
// The queue bound (Config.Queue) counts jobs that have never been granted a
// unit; a sweep with points still queued has started and does not count
// against intake.

const (
	laneInteractive = 0
	laneBatch       = 1
)

// laneFor classifies a job. Compose jobs are interactive even though they
// run legs through the sweep engine: their leg counts are small and a PLL
// composition is the latency-sensitive kind of request.
func laneFor(j *job) int {
	if j.kind == "sweep" {
		return laneBatch
	}
	return laneInteractive
}

// tenantLane is one tenant's queue within one lane.
type tenantLane struct {
	jobs   []*job  // FIFO of jobs with units not yet granted
	vtime  float64 // virtual time: units granted / weight
	weight float64
}

var errSchedClosed = errors.New("serve: scheduler closed")
var errSchedFull = errors.New("serve: queue full")

// sched is the two-lane weighted-fair scheduler. All fields (and every
// job's granted count) are guarded by mu; slots block in next on cond.
type sched struct {
	mu     sync.Mutex
	cond   *sync.Cond
	lanes  [2]map[string]*tenantLane
	closed bool
	queued int // jobs never yet granted (the intake bound)
	bound  int
}

func newSched(bound int) *sched {
	s := &sched{bound: bound}
	s.cond = sync.NewCond(&s.mu)
	s.lanes[laneInteractive] = make(map[string]*tenantLane)
	s.lanes[laneBatch] = make(map[string]*tenantLane)
	return s
}

// tenantLaneLocked materialises the tenant's queue in a lane. A tenant
// (re)entering an empty queue starts at the lane's minimum active virtual
// time: it competes fairly from now on but cannot claim credit for the time
// it was absent (which would let a bursty tenant leapfrog a steady one).
func (s *sched) tenantLaneLocked(lane int, tenant string, weight float64) *tenantLane {
	tl, ok := s.lanes[lane][tenant]
	if !ok {
		tl = &tenantLane{weight: weight}
		s.lanes[lane][tenant] = tl
	}
	if weight > 0 {
		tl.weight = weight
	}
	if len(tl.jobs) == 0 {
		if minV, ok := s.minActiveLocked(lane); ok && tl.vtime < minV {
			tl.vtime = minV
		}
	}
	return tl
}

func (s *sched) minActiveLocked(lane int) (float64, bool) {
	minV, ok := 0.0, false
	for _, tl := range s.lanes[lane] {
		if len(tl.jobs) == 0 {
			continue
		}
		if !ok || tl.vtime < minV {
			minV, ok = tl.vtime, true
		}
	}
	return minV, ok
}

// submit queues a brand-new job (never granted). Fails when the intake bound
// is reached or the scheduler has closed.
func (s *sched) submit(j *job, weight float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && s.bound > 0 && s.queued >= s.bound {
		return errSchedFull
	}
	return s.enqueueLocked(j, weight)
}

// resume enqueues a journal-recovered job. It respects closure (a draining
// server leaves .wal files for the next start) but not the intake bound:
// these jobs were admitted by a previous process and are owed a run even if
// the restarted server has already filled its queue with new work.
func (s *sched) resume(j *job, weight float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueueLocked(j, weight)
}

func (s *sched) enqueueLocked(j *job, weight float64) error {
	if s.closed {
		return errSchedClosed
	}
	s.queued++
	tl := s.tenantLaneLocked(laneFor(j), j.tenant, weight)
	tl.jobs = append(tl.jobs, j)
	s.cond.Signal()
	return nil
}

// next blocks until a unit is available and returns its job and unit index,
// or a nil job when the scheduler is closed and fully drained. Interactive
// lane first; within a lane, the queued tenant with the lowest virtual time.
func (s *sched) next() (*job, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for lane := range s.lanes {
			var best *tenantLane
			var bestName string
			for name, tl := range s.lanes[lane] {
				if len(tl.jobs) == 0 {
					continue
				}
				// Tie-break by name so the scan order of the map cannot make
				// scheduling non-deterministic.
				if best == nil || tl.vtime < best.vtime || (tl.vtime == best.vtime && name < bestName) {
					best, bestName = tl, name
				}
			}
			if best == nil {
				continue
			}
			j := best.jobs[0]
			unit := j.granted
			j.granted++
			if unit == 0 {
				s.queued--
			}
			if j.granted == j.units {
				best.jobs = best.jobs[1:]
			} else {
				// Units left behind: wake another slot for them, or a job's
				// points would only ever run on the slot its submit woke.
				s.cond.Signal()
			}
			best.vtime += 1 / best.weight
			serveMetrics.Get().tenantGrants.With(j.tenant).Inc()
			return j, unit
		}
		if s.closed {
			return nil, 0
		}
		s.cond.Wait()
	}
}

// withdraw takes a started job's ungranted units out of its lane and
// returns the first of them: units [from, j.units) will never be granted.
// A slot calls it when it finds the job's budget tripped, so a cancelled
// sweep settles once its in-flight points return instead of trickling
// through other tenants' grants.
func (s *sched) withdraw(j *job) (from int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	from = j.granted
	if from < j.units {
		j.granted = j.units
		tl := s.lanes[laneFor(j)][j.tenant]
		tl.jobs = slices.DeleteFunc(tl.jobs, func(q *job) bool { return q == j })
	}
	return from
}

// depth reports jobs accepted but never yet granted a slot — the number
// the old len(queue-channel) reported.
func (s *sched) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// close stops intake and wakes every slot; next drains what remains (so
// queued jobs still reach a terminal state during shutdown) and then
// returns nil.
func (s *sched) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

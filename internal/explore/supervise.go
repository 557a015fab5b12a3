package explore

import (
	"fmt"
	"sync/atomic"
	"time"

	"waitfree/internal/program"
)

// This file implements the long-run supervision layer of the consensus
// engines: periodic checkpoint autosave (Options.CheckpointEvery /
// OnCheckpoint), the stall watchdog (Options.StallAfter), and the
// partial-coverage contract (Options.MaxNodes and deadline expiry degrade
// to a ConsensusReport with Partial set instead of erroring — see
// ConsensusKContext).

// DefaultCheckpointEvery is the autosave interval when OnCheckpoint is
// set but CheckpointEvery is 0.
const DefaultCheckpointEvery = 30 * time.Second

// Coverage reasons.
const (
	// CoverageDeadline: the run context's deadline expired.
	CoverageDeadline = "deadline"
	// CoverageNodeBudget: the engine passed Options.MaxNodes.
	CoverageNodeBudget = "node-budget"
	// CoverageStall: the stall watchdog stopped the run (see StallError).
	CoverageStall = "stall"
)

// Coverage describes how far a partial consensus run got before its soft
// budget, deadline, or the stall watchdog stopped it.
type Coverage struct {
	// Reason is one of the Coverage* constants.
	Reason string `json:"reason"`
	// TreesDone / TreesTotal count finished proposal-vector trees;
	// TreesMerged is the contiguous mask prefix actually folded into the
	// report's bounds (trees finished out of order are checkpointed but
	// not merged).
	TreesDone   int `json:"trees_done"`
	TreesTotal  int `json:"trees_total"`
	TreesMerged int `json:"trees_merged"`
	// Nodes is the engine's configuration count, including trees not
	// merged.
	Nodes int64 `json:"nodes"`
	// DeepestFrontier is the deepest configuration any worker reached.
	DeepestFrontier int `json:"deepest_frontier"`
}

func (c *Coverage) String() string {
	return fmt.Sprintf("coverage: %d/%d trees done (%d merged), %d nodes, deepest frontier %d, stopped by %s",
		c.TreesDone, c.TreesTotal, c.TreesMerged, c.Nodes, c.DeepestFrontier, c.Reason)
}

// StallError reports a worker that made no node progress for
// Options.StallAfter: a wedged Spec.Step or Machine, or a pathologically
// slow configuration. It accompanies the partial report ConsensusKContext
// returns when the watchdog stops a run.
type StallError struct {
	// Worker is the stalled worker's index (see Stats.WorkerNodes).
	Worker int `json:"worker"`
	// Mask and Proposals identify the tree the worker was exploring.
	Mask      int   `json:"mask"`
	Proposals []int `json:"proposals"`
	// Depth and ConfigKey locate the worker's last flushed configuration.
	// ConfigKey is that configuration's segment bytes in hex — its memo
	// key with every segment id resolved, the key the panic handler
	// renders too — so the offending configuration can be identified
	// across runs.
	Depth     int    `json:"depth"`
	ConfigKey string `json:"config_key,omitempty"`
	// Idle is how long the worker had made no progress when flagged.
	Idle time.Duration `json:"idle_ns"`
	// Abandoned reports that the worker did not unwind within the grace
	// period after cancellation — it is stuck inside user code that never
	// polls the context — so its goroutine was abandoned (it reclaims
	// itself if the user code ever returns).
	Abandoned bool `json:"abandoned,omitempty"`
}

func (e *StallError) Error() string {
	s := fmt.Sprintf("explore: worker %d stalled for %v on tree %d (proposals %v) at depth %d",
		e.Worker, e.Idle.Round(time.Millisecond), e.Mask, e.Proposals, e.Depth)
	if e.ConfigKey != "" {
		s += ", config key " + e.ConfigKey
	}
	if e.Abandoned {
		s += "; worker did not unwind and was abandoned (stuck in user code)"
	}
	return s
}

// supervisor is the per-run goroutine behind autosave and the stall
// watchdog. It is started by ConsensusKContext when either is configured
// and joined (stop) before the report is assembled, so reads of its stall
// record never race.
type supervisor struct {
	quit   chan struct{}
	joined chan struct{}
	// abandon is closed when a stalled worker failed to unwind within the
	// grace period: the main goroutine stops waiting for the WaitGroup and
	// assembles the partial report without it.
	abandon chan struct{}
	stall   atomic.Pointer[StallError]
}

// startSupervisor launches the supervision loop, or returns nil when
// neither autosave nor the watchdog is configured. snapshotCP must be
// safe to call concurrently with running workers (it reads outcomes
// through the done flags); wgDone closes when every worker has returned.
func startSupervisor(opts Options, ctr *counters, im *program.Implementation, k int,
	snapshotCP func() *Checkpoint, wgDone <-chan struct{}) *supervisor {
	autosave := opts.CheckpointEvery
	if autosave == 0 && opts.OnCheckpoint != nil {
		autosave = DefaultCheckpointEvery
	}
	if autosave <= 0 && opts.StallAfter <= 0 {
		return nil
	}
	s := &supervisor{
		quit:    make(chan struct{}),
		joined:  make(chan struct{}),
		abandon: make(chan struct{}),
	}
	// One ticker serves both duties: fast enough to autosave on time and
	// to bound stall-detection latency to ~StallAfter/4 past the deadline.
	tick := autosave
	if opts.StallAfter > 0 {
		if q := opts.StallAfter / 4; tick <= 0 || q < tick {
			tick = q
		}
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	go func() {
		defer close(s.joined)
		t := time.NewTicker(tick)
		defer t.Stop()
		lastSave := time.Now()
		savedTrees := -1
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
			if autosave > 0 && time.Since(lastSave) >= autosave {
				lastSave = time.Now()
				if cp := snapshotCP(); len(cp.Trees) != savedTrees {
					savedTrees = len(cp.Trees)
					opts.OnCheckpoint(cp)
				}
			}
			if opts.StallAfter <= 0 {
				continue
			}
			now := time.Now().UnixNano()
			for w := range ctr.beats {
				b := &ctr.beats[w]
				mask := int(b.mask.Load())
				if mask < 0 {
					continue // idle or exited
				}
				idle := time.Duration(now - b.lastProgress.Load())
				if idle < opts.StallAfter {
					continue
				}
				se := &StallError{
					Worker:    w,
					Mask:      mask,
					Proposals: ProposalVectorK(mask, im.Procs, k),
					Depth:     int(b.depth.Load()),
					Idle:      idle,
				}
				if kp := b.key.Load(); kp != nil {
					se.ConfigKey = *kp
				}
				ctr.trip(tripStall)
				// Grace period: workers that poll the context unwind within
				// flushEvery nodes; one truly stuck inside user code never
				// will, so cap the wait and abandon it.
				grace := opts.StallAfter
				if grace < 100*time.Millisecond {
					grace = 100 * time.Millisecond
				}
				if grace > 2*time.Second {
					grace = 2 * time.Second
				}
				select {
				case <-wgDone:
					s.stall.Store(se)
				case <-time.After(grace):
					se.Abandoned = true
					// Store strictly before closing abandon: the main
					// goroutine reads the pointer only after this close (or
					// after joining us), so the record is always complete.
					s.stall.Store(se)
					close(s.abandon)
				}
				return
			}
		}
	}()
	return s
}

// stop joins the supervisor; after it returns, stallErr is stable.
func (s *supervisor) stop() {
	close(s.quit)
	<-s.joined
}

// stallErr returns the watchdog's finding, nil if none. Only valid after
// stop (or after abandon closed).
func (s *supervisor) stallErr() *StallError {
	return s.stall.Load()
}

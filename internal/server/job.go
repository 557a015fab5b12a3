package server

import (
	"context"
	"encoding/json"
	"sync"
	"time"
)

// JobState is the lifecycle state machine:
//
//	queued ──▶ running ──▶ done | failed | cancelled
//	  ▲           │
//	  └───────────┘  (drain or restart: checkpointed and re-queued)
//
// done/failed/cancelled are terminal; a drain or a crash moves a running
// job back to queued with its latest durable checkpoint, so the next
// start resumes instead of restarting.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Job is one verification job. The mutable fields are guarded by mu;
// views (snapshots) are taken under it and served lock-free.
type Job struct {
	mu sync.Mutex

	id   string
	kind string          // the wire kind; runJob re-decodes raw for the rest
	raw  json.RawMessage // the submission body, persisted verbatim

	state    JobState
	err      *WireError
	report   json.RawMessage // canonicalized waitfree.Report JSON
	ok       *bool           // Report.OK() of a done job
	chkpoint json.RawMessage // latest durable explore.Checkpoint JSON
	resumes  int             // times this job resumed from a checkpoint

	created  time.Time
	started  time.Time
	finished time.Time

	cancel          context.CancelFunc
	cancelRequested bool

	hub *hub
}

// JobView is the JSON rendering of a job served by GET /v1/jobs/{id} and
// embedded in SSE state events. Report is raw so a stored report's bytes
// reach the client untouched — byte-identical to the direct
// waitfree.Check run that produced them.
type JobView struct {
	ID      string          `json:"id"`
	State   JobState        `json:"state"`
	Kind    string          `json:"kind"`
	Request json.RawMessage `json:"request,omitempty"`
	// OK echoes Report.OK() for done jobs.
	OK *bool `json:"ok,omitempty"`
	// Error carries the failure taxonomy code for failed jobs.
	Error *WireError `json:"error,omitempty"`
	// Report is the final canonical report of a done job.
	Report json.RawMessage `json:"report,omitempty"`
	// HasCheckpoint / Resumes describe durable progress: whether a
	// resumable checkpoint is stored, and how many restarts the job has
	// already survived.
	HasCheckpoint bool `json:"has_checkpoint,omitempty"`
	Resumes       int  `json:"resumes,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// view snapshots the job under its lock.
func (j *Job) view() *JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() *JobView {
	v := &JobView{
		ID:            j.id,
		State:         j.state,
		Kind:          j.kind,
		Request:       j.raw,
		OK:            j.ok,
		Error:         j.err,
		Report:        j.report,
		HasCheckpoint: len(j.chkpoint) > 0,
		Resumes:       j.resumes,
		Created:       j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// Event is one SSE datum: Type names the stream event (state, stats,
// checkpoint, done), Data is its JSON payload.
type Event struct {
	Type string
	Data []byte
}

// hub fans a job's events out to its SSE subscribers. Publishing never
// blocks: a subscriber that cannot keep up loses intermediate events (the
// next state snapshot catches it up; stats are periodic anyway). The
// subscriber map is made on the first subscribe and dropped on close, so
// a terminal job keeps no map alive.
type hub struct {
	mu     sync.Mutex
	subs   map[chan Event]struct{}
	closed bool
}

// subscribe registers a listener. The returned channel is closed when the
// job reaches a terminal state; unsubscribe with the returned func.
func (h *hub) subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 16)
	h.mu.Lock()
	if h.closed {
		close(ch)
		h.mu.Unlock()
		return ch, func() {}
	}
	if h.subs == nil {
		h.subs = make(map[chan Event]struct{})
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
		h.mu.Unlock()
	}
}

// publish broadcasts ev without blocking.
func (h *hub) publish(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop, never stall a worker
		}
	}
}

// close broadcasts ev (if non-empty) and closes every subscription; the
// hub accepts no further publishes or subscribers.
func (h *hub) close(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		if ev.Type != "" {
			select {
			case ch <- ev:
			default:
			}
		}
		close(ch)
	}
	h.subs = nil
}

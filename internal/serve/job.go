package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
)

// State is a job's position in its lifecycle.
type State string

// Job lifecycle states. queued → running → one of the terminal three;
// a queued job may jump straight to cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateCompleted, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Job is one submitted campaign: its validated spec, cache identity and
// lifecycle. All mutable state sits behind mu; Done() closes exactly
// once, on the transition into a terminal state.
type Job struct {
	id      string
	tenant  string
	key     string
	spec    *dist.Spec
	created time.Time

	// ctx is cancelled by a cancel request or server shutdown; the
	// executor passes it into the dist pipeline, so an abort stops the
	// campaign mid-shard and leaves the artefact resumable.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    State
	cached   bool
	startSeq int
	errText  string
	errClass string
	result   *tally
}

// tally is a completed campaign's aggregate as job views report it. It
// has no mutators, so the verified-content memo entry it was computed
// for and every job answered from that entry share one value; and it
// holds no per-run records — a full-mode result's records (transcripts
// included) are already in the artefact, and holding them would grow
// the daemon with every job it completes.
type tally struct {
	counts          []int // by position in core.AllOutcomes()
	injections      int
	meanDetectionNS int64
}

func newTally(res *core.CampaignResult) *tally {
	outs := core.AllOutcomes()
	t := &tally{
		counts:          make([]int, len(outs)),
		injections:      res.InjectionsTotal(),
		meanDetectionNS: int64(res.MeanDetectionLatency()),
	}
	for i, o := range outs {
		t.counts[i] = res.Count(o)
	}
	return t
}

func newJob(id, tenant, key string, spec *dist.Spec, parent context.Context) *Job {
	ctx, cancel := context.WithCancel(parent)
	metJobTransitions.With(string(StateQueued)).Inc()
	return &Job{
		id:      id,
		tenant:  tenant,
		key:     key,
		spec:    spec,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   StateQueued,
	}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// stateAndCached snapshots the fields /healthz aggregates over.
func (j *Job) stateAndCached() (State, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.cached
}

// begin claims the job for execution (queued → running), stamping the
// server-wide start sequence. It returns false when the job was
// cancelled while queued — the executor then releases its slot without
// touching the machine pool.
func (j *Job) begin(seq int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.startSeq = seq
	metJobTransitions.With(string(StateRunning)).Inc()
	metQueueWait.With(j.tenant).ObserveSince(j.created)
	return true
}

// finish moves the job into a terminal state exactly once; mutate runs
// under the job lock to attach the terminal payload. Late finishers
// (an executor racing a cancel request) are no-ops.
func (j *Job) finish(state State, mutate func()) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	if mutate != nil {
		mutate()
	}
	j.mu.Unlock()
	metJobTransitions.With(string(state)).Inc()
	close(j.done)
}

// finishCompleted records a completed job and the tally its views
// report.
func (j *Job) finishCompleted(t *tally, cached bool) {
	j.finish(StateCompleted, func() {
		j.result = t
		j.cached = cached
	})
}

func (j *Job) finishCancelled() {
	j.finish(StateCancelled, nil)
}

func (j *Job) finishFailed(class string, err error) {
	j.finish(StateFailed, func() {
		j.errClass = class
		j.errText = err.Error()
	})
}

// requestCancel asks the job to stop: a queued job becomes cancelled on
// the spot (the dispatcher discards it), a running one has its context
// cancelled and the executor records the abort.
func (j *Job) requestCancel() {
	j.cancel()
	j.finishIfQueuedCancelled()
}

func (j *Job) finishIfQueuedCancelled() {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	j.state = StateCancelled
	j.mu.Unlock()
	metJobTransitions.With(string(StateCancelled)).Inc()
	close(j.done)
}

// View renders the job for the API.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.id,
		Tenant:     j.tenant,
		State:      j.state,
		Cached:     j.cached,
		Key:        j.key,
		Plan:       j.spec.Plan.Name,
		PlanHash:   fmt.Sprintf("%#x", j.spec.Plan.Hash()),
		FaultModel: j.spec.Plan.EffectiveFaultName(),
		Runs:       j.spec.Runs,
		Seed:       Seed(j.spec.MasterSeed),
		Mode:       j.spec.Mode.String(),
		StartSeq:   j.startSeq,
		Error:      j.errText,
		ErrorClass: j.errClass,
	}
	if j.result != nil {
		outs := core.AllOutcomes()
		dist := make(map[string]int, len(outs))
		for i, o := range outs {
			dist[o.String()] = j.result.counts[i]
		}
		v.Distribution = dist
		v.InjectionsTotal = j.result.injections
		v.MeanDetectionNS = j.result.meanDetectionNS
	}
	return v
}

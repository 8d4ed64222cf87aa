package fanout

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
)

// StartRequest is everything a launcher needs to run one shard attempt.
type StartRequest struct {
	// Spec is the in-memory campaign description (in-process workers
	// execute it directly).
	Spec *dist.Spec
	// SpecPath is the serialized spec the supervisor published in the
	// campaign directory (re-exec workers load it).
	SpecPath string
	// Index is the shard to execute.
	Index int
	// OutPath is the shard's JSONL artefact.
	OutPath string
	// Workers bounds the campaign parallelism inside the worker
	// (0 = GOMAXPROCS).
	Workers int
}

// Worker is one running shard attempt. The supervisor never interprets
// Wait's error beyond "the attempt ended" — whether the attempt
// actually produced a complete artefact is decided by re-reading the
// artefact, so a worker that lies about its exit status cannot corrupt
// the campaign.
type Worker interface {
	// Wait blocks until the worker exits and returns its terminal error
	// (nil on clean exit).
	Wait() error
	// Kill stops the worker forcefully. Idempotent; Wait still returns.
	Kill()
	// Describe names the worker for the fanout manifest ("pid 1234",
	// "in-process").
	Describe() string
}

// Launcher starts shard workers. Exec re-execs the current binary as
// real processes (the production path); InProcess runs the shard in a
// goroutine of the supervisor's own process (the unit-test path and the
// library embedding path — same supervision logic, no subprocesses).
type Launcher interface {
	Start(ctx context.Context, req StartRequest) (Worker, error)
}

// ---- In-process launcher ----

// InProcess executes shards as goroutines via dist.ExecuteShardPool.
// Kill cancels the shard's context: the campaign stops scheduling runs
// and the artefact is left without a summary, exactly like a crashed
// process after its buffers flushed.
//
// Pool, when non-nil, is the shared warm-machine pool every shard's
// workers draw from: machines booted by one shard are rewound and
// reused by the next instead of being rebuilt. The supervisor installs
// one automatically when it defaults to this launcher; wrapping
// launchers that construct InProcess themselves opt in by sharing one
// core.MachinePool across attempts.
type InProcess struct {
	Pool *core.MachinePool
}

type inprocWorker struct {
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// Start implements Launcher.
func (l InProcess) Start(ctx context.Context, req StartRequest) (Worker, error) {
	if req.Spec == nil {
		return nil, fmt.Errorf("fanout: in-process worker needs a spec")
	}
	wctx, cancel := context.WithCancel(ctx)
	w := &inprocWorker{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		defer cancel()
		_, _, err := dist.ExecuteShardPool(wctx, req.Spec, req.Index, req.Workers, req.OutPath, l.Pool)
		w.err = err
	}()
	return w, nil
}

func (w *inprocWorker) Wait() error {
	<-w.done
	return w.err
}

func (w *inprocWorker) Kill()            { w.cancel() }
func (w *inprocWorker) Describe() string { return "in-process" }

// ---- Re-exec launcher ----

// Exec launches each shard as a separate OS process: the supervisor's
// own binary re-invoked in worker mode, loading the published spec.json
// and executing one shard. This is the paper-scale path — a crashed or
// wedged worker takes down only its shard, and SIGKILL recovery rides
// the artefact resume semantics.
type Exec struct {
	// Binary is the executable to run; empty = os.Executable().
	Binary string
	// Args is the argument prefix before the worker flags, typically
	// {"fanout-worker"} for the certify CLI.
	Args []string
	// Env entries appended to the inherited environment.
	Env []string
	// Stderr receives the workers' stderr (interleaved); nil = discard.
	// Workers' stdout is always discarded — the artefact file is the
	// only channel the supervisor trusts.
	Stderr io.Writer
}

type execWorker struct {
	cmd      *exec.Cmd
	killOnce sync.Once
}

// Start implements Launcher.
func (l *Exec) Start(ctx context.Context, req StartRequest) (Worker, error) {
	bin := l.Binary
	if bin == "" {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("fanout: cannot locate own binary: %w", err)
		}
		bin = self
	}
	if req.SpecPath == "" {
		return nil, fmt.Errorf("fanout: exec worker needs a spec path")
	}
	args := append(append([]string{}, l.Args...),
		"-spec", req.SpecPath,
		"-index", strconv.Itoa(req.Index),
		"-out", req.OutPath,
		"-workers", strconv.Itoa(req.Workers),
	)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout = nil
	cmd.Stderr = l.Stderr
	if len(l.Env) > 0 {
		cmd.Env = append(os.Environ(), l.Env...)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fanout: start shard %d worker: %w", req.Index, err)
	}
	return &execWorker{cmd: cmd}, nil
}

func (w *execWorker) Wait() error { return w.cmd.Wait() }

func (w *execWorker) Kill() {
	w.killOnce.Do(func() {
		if w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
		}
	})
}

func (w *execWorker) Describe() string {
	if w.cmd.Process != nil {
		return fmt.Sprintf("pid %d", w.cmd.Process.Pid)
	}
	return "unstarted process"
}

// Package core is the paper's contribution: the fault-injection testing
// framework for assessing a partitioning hypervisor as an ISO 26262
// Safety Element out of Context (SEooC). It provides the bit-flip fault
// models, the intensity levels and occurrence control of the paper's test
// plans, the experiment runner and campaign orchestration, the outcome
// classifier that reads the serial captures the way the paper's analytics
// did, and the SEooC evidence report generator.
package core

import (
	"errors"
	"fmt"
	"strings"

	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/guest/freertos"
	"github.com/dessertlab/certify/internal/guest/rootlinux"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

// Machine is one fully assembled experiment target: the Banana Pi board,
// the hypervisor, root Linux and the FreeRTOS cell with the paper's
// workload.
type Machine struct {
	Board *board.Board
	HV    *jailhouse.Hypervisor
	Linux *rootlinux.Linux

	// machineState is the machine's own bookkeeping: a checkpoint
	// copies it, a restore assigns it, and a rejoin check compares it
	// with ==.
	machineState

	// rtosArena recycles FreeRTOS kernels across cell loads: loads draw
	// kernels from the arena in order, deep-resetting recycled ones, so
	// a machine rewound to a checkpoint (or an E1 recreate cycle)
	// re-creates its cell workload without reallocating task control
	// blocks.
	rtosArena []*freertos.Kernel

	// simFault records a Go panic recovered during Run — a defect in the
	// simulation itself, surfaced as a truthful sim-fault outcome instead
	// of killing the campaign worker.
	simFault string

	// profile is the boot profile the machine was built for, and postBoot
	// its post-boot image (nil until CaptureSnapshot): checkpoint 0 of
	// every golden timeline of the profile. Restore rewinds the machine
	// from it instead of replaying the boot path. Checkpoints reference
	// this machine's own objects (cells, kernels, control blocks) and
	// must never be shared across machines; only their logs are shared.
	profile  profileKey
	postBoot *checkpoint
	// timelines holds the golden timelines of the run shapes this
	// machine served recently (at most maxTimelines, LRU by lruClock).
	timelines []*timeline
	lruClock  uint64
	// run, when set, makes the next Run a timeline run (see prepare).
	run timelineRun
}

// machineState is a Machine's bookkeeping, one comparable value.
type machineState struct {
	// RTOS is the FreeRTOS kernel of the current cell.
	RTOS *freertos.Kernel

	// CellID of the FreeRTOS cell.
	CellID uint32

	// rtosNext is the next arena slot to hand out.
	rtosNext int

	// createCfg is the configuration of a pending delayed cell bring-up
	// (E2; nil when none is scheduled), createWatchdog whether the
	// bring-up arms the state watchdog.
	createCfg      *jailhouse.CellConfig
	createWatchdog bool
}

// profileKey identifies a boot profile: every MachineOptions field that
// shapes the post-boot state. Seed is excluded — boot draws nothing from
// the RNG, so one image serves every seed (restore reseeds) — and so
// are the trace arena hints, which only size buffers. A campaign's
// profile is fixed by its plan's workload alone — full and distribution
// mode boot the same machine — so campaigns have at most 3 profiles,
// whatever their durations.
type profileKey struct {
	recreateLoop   bool
	recreatePeriod sim.Time
	delayedCreate  bool
	stateWatchdog  bool
}

func profileOf(opts MachineOptions) profileKey {
	return profileKey{
		recreateLoop:   opts.RecreateLoop,
		recreatePeriod: opts.RecreatePeriod,
		delayedCreate:  opts.DelayedCreate,
		stateWatchdog:  opts.StateWatchdog,
	}
}

// MachineOptions tunes the assembly.
type MachineOptions struct {
	// Seed drives every random decision in the run.
	Seed uint64
	// RecreateLoop arms the E1 management workload: the root cell
	// destroys and recreates the FreeRTOS cell every RecreatePeriod.
	RecreateLoop   bool
	RecreatePeriod sim.Time
	// DelayedCreate postpones the single cell create/load/start by
	// delayedCreateAt — the E2 workload, where the injector is already
	// armed when the bring-up happens.
	DelayedCreate bool
	// StateWatchdog arms the periodic "jailhouse cell state" probe.
	StateWatchdog bool
	// Deprecated: LeanCapture has no effect. The UARTs keep no raw byte
	// log to disable, so every capture mode boots the same machine.
	LeanCapture bool
	// TraceRecords/TraceArgs pre-size the engine's trace arenas — the
	// plan-profile hint from TraceBudget. Zero leaves the arenas to
	// grow by appending; campaign runs set both via RunExperimentOpts.
	// A restored machine grows its arenas to the hint of each run.
	TraceRecords int
	TraceArgs    int
}

// DefaultMachineOptions returns the configuration of the paper's main
// workload: cell started, state watchdog on.
func DefaultMachineOptions(seed uint64) MachineOptions {
	return MachineOptions{Seed: seed, StateWatchdog: true}
}

// BuildMachine boots the full stack: board power-on, root Linux boot,
// hypervisor enable, FreeRTOS cell create/load/start. The returned
// machine is ready for its engine to run the experiment horizon.
func BuildMachine(opts MachineOptions) (*Machine, error) {
	brd := board.New(opts.Seed, board.Options{
		TraceRecordHint: opts.TraceRecords,
		TraceArgHint:    opts.TraceArgs,
	})
	hv := jailhouse.New(brd)
	linux := rootlinux.New(hv)
	m := &Machine{Board: brd, HV: hv, Linux: linux, profile: profileOf(opts)}
	brd.Handle(board.EvDelayedCreate, func(int32, uint64) { m.delayedCreate() })
	brd.Handle(board.EvRaiseSPI, func(irq int32, _ uint64) { _ = brd.GIC.RaiseSPI(int(irq)) })
	brd.Handle(board.EvSendSGI, func(src int32, arg uint64) { _ = brd.GIC.SendSGI(int(src), uint8(arg>>8), int(arg&0xFF)) })
	if err := m.boot(opts); err != nil {
		return nil, err
	}
	return m, nil
}

// newRTOS hands out the next FreeRTOS kernel for a cell load: a recycled
// arena kernel (deep-reset, workload re-installed) when one is free — a
// kernel of an earlier E1 recreate cycle, or one past a restored
// checkpoint's arena position — a freshly built one otherwise. The
// choice is invisible to the simulation — a deep-reset kernel is
// state-identical to a new one.
func (m *Machine) newRTOS() *freertos.Kernel {
	if m.rtosNext < len(m.rtosArena) {
		k := m.rtosArena[m.rtosNext]
		m.rtosNext++
		k.DeepReset(1)
		k.InstallPaperWorkload()
		return k
	}
	k := freertos.NewPaperWorkload(m.HV, 1)
	m.rtosArena = append(m.rtosArena, k)
	m.rtosNext = len(m.rtosArena)
	return k
}

// boot runs the bring-up flow on a freshly built stack: hypervisor
// enable, root Linux boot, then the cell lifecycle the options select.
// Warm machines never replay it: they restore the post-boot image it
// produced.
func (m *Machine) boot(opts MachineOptions) error {
	if err := m.Linux.HypervisorEnable(jailhouse.DefaultSystemConfig()); err != nil {
		return fmt.Errorf("enable: %w", err)
	}
	m.Linux.Boot(0)

	cfg := jailhouse.FreeRTOSCellConfig()

	if opts.RecreateLoop {
		period := opts.RecreatePeriod
		if period <= 0 {
			period = 5 * sim.Second
		}
		m.Linux.StartRecreateLoop(cfg, func() jailhouse.Inmate {
			k := m.newRTOS()
			m.RTOS = k
			return k
		}, period)
		if opts.StateWatchdog {
			m.Linux.StartStateWatchdog(0) // follows the current cycle's cell
		}
		return nil
	}

	if opts.DelayedCreate {
		m.createCfg, m.createWatchdog = cfg, opts.StateWatchdog
		m.Board.Engine.Schedule(delayedCreateAt, board.EvDelayedCreate, 0, 0)
		return nil
	}

	if err := m.Linux.CellCreate(cfg); err != nil {
		return fmt.Errorf("cell create: %w", err)
	}
	m.CellID = m.Linux.CellID
	m.RTOS = m.newRTOS()
	if err := m.Linux.CellLoad(m.CellID, inmateImage(), m.RTOS); err != nil {
		return fmt.Errorf("cell load: %w", err)
	}
	if err := m.Linux.CellStart(m.CellID); err != nil {
		return fmt.Errorf("cell start: %w", err)
	}
	if opts.StateWatchdog {
		m.Linux.StartStateWatchdog(m.CellID)
	}
	return nil
}

// delayedCreateAt is when the E2 workload's delayed cell bring-up runs.
const delayedCreateAt = 2 * sim.Second

// delayedCreate is the delayed cell bring-up boot scheduled: create,
// load and start the FreeRTOS cell, then arm the state watchdog.
func (m *Machine) delayedCreate() {
	cfg := m.createCfg
	m.createCfg = nil
	if err := m.Linux.CellCreate(cfg); err != nil {
		return // tool error already on the console
	}
	m.CellID = m.Linux.CellID
	m.RTOS = m.newRTOS()
	if err := m.Linux.CellLoad(m.CellID, inmateImage(), m.RTOS); err != nil {
		return
	}
	if err := m.Linux.CellStart(m.CellID); err != nil {
		return
	}
	if m.createWatchdog {
		m.Linux.StartStateWatchdog(m.CellID)
	}
}

// Tainted reports whether the machine may carry corrupted layer state: a
// recovered Go panic (sim-fault) left the simulation mid-mutation, and a
// machine wedge left an event storm mid-flight. Such machines must not
// be parked in a pool or restored; callers build cold instead.
func (m *Machine) Tainted() bool {
	if m.simFault != "" {
		return true
	}
	halted, msg := m.Board.Engine.Halted()
	return halted && strings.HasPrefix(msg, "machine wedge")
}

// CaptureSnapshot stores the machine's current state as the post-boot
// image of its profile — checkpoint 0 of the profile's golden timelines
// — and publishes its logs to the profile's golden store. Must be
// called on a freshly built machine, before its first Run: the image
// has to lie on the profile's fault-free trajectory.
func (m *Machine) CaptureSnapshot() {
	m.postBoot = m.capture()
}

// Restore brings the machine back to the post-boot state for opts from
// its post-boot image, copying back only dirtied RAM pages, the golden
// UART and console lines and the captured control blocks — no boot
// replay. It fails for a
// machine without an image, for options of another boot profile and
// for a tainted machine (sim-fault, machine wedge), whose state is not
// trusted as a restore base: such machines are built anew instead. The
// observable result must be indistinguishable from BuildMachine with
// the same options; warmpool_test.go's differential suites hold it to
// that.
func (m *Machine) Restore(opts MachineOptions) error {
	boot, err := m.bootImage(opts)
	if err != nil {
		return err
	}
	m.run = timelineRun{}
	m.restoreTo(boot, opts.Seed)
	return nil
}

// bootImage returns the post-boot image a run with opts starts from,
// after growing the trace arenas to the run's hint, or why the machine
// cannot serve the run.
func (m *Machine) bootImage(opts MachineOptions) (*checkpoint, error) {
	switch {
	case m.postBoot == nil:
		return nil, errors.New("core: machine has no post-boot image")
	case m.profile != profileOf(opts):
		return nil, errors.New("core: machine was booted for another profile")
	case m.Tainted():
		return nil, errors.New("core: machine is tainted")
	}
	// Presized once: arenas regrown by doubling leave more garbage
	// behind than the whole-horizon estimate holds.
	m.Board.Trace().Grow(opts.TraceRecords, opts.TraceArgs)
	return m.postBoot, nil
}

// inmateImage produces the opaque "freertos.bin" bytes the tool writes
// into the loadable region — content is irrelevant to the model but the
// write path (root access to the loadable window) is exercised.
func inmateImage() []byte {
	img := make([]byte, 4096)
	copy(img, "FREERTOS-INMATE-IMAGE v10.4.3")
	return img
}

// Run executes the machine for the given virtual duration. A halted
// engine (hypervisor panic_stop) is not an error at this level — it is
// an experiment outcome. A Go panic escaping the event loop — the
// simulation itself failing under an injected fault — is recovered here,
// halts the engine, and classifies as sim-fault: one bad run must never
// kill a shard worker or poison a campaign aggregate.
//
// A run prepared on a golden timeline runs in checkpoint-spacing
// segments, and once it has rejoined the golden trajectory the stretch
// up to its next injection, or to the horizon, is spliced from the
// timeline instead of simulated (see converge). The result is the same
// as one Engine.Run.
func (m *Machine) Run(d sim.Time) {
	defer func() {
		if r := recover(); r != nil {
			m.simFault = fmt.Sprintf("%v", r)
			m.Board.Engine.Halt("sim fault: " + m.simFault)
		}
	}()
	horizon := m.Board.Now() + d
	r := m.run
	m.run = timelineRun{}
	if r.tl == nil {
		_ = m.Board.Engine.Run(horizon)
		return
	}
	m.converge(r, horizon)
}

// SimFault returns the recovered panic message of a simulation fault
// during Run, or "" for a healthy run.
func (m *Machine) SimFault() string { return m.simFault }

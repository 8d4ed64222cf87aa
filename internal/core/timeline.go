package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/guest/freertos"
	"github.com/dessertlab/certify/internal/guest/rootlinux"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/obs"
	"github.com/dessertlab/certify/internal/sim"
)

// Golden timeline (see DESIGN.md "Golden timeline"). Until its first
// injection, every run of a campaign replays the same fault-free
// trajectory: boot draws nothing from the run seed, the machine RNG is
// drawn only on corruption paths, and the injector's first trigger is
// fixed by its phase and the golden call count. A warm machine therefore
// keeps checkpoints of that trajectory every checkpointSpacing of
// virtual time, recorded up to the horizon by one fault-free golden
// pass before the timeline's first run, and starts each run from the
// latest checkpoint its injector provably cannot have fired before. The
// post-boot image is checkpoint 0.

const (
	// checkpointSpacing is the virtual time between golden checkpoints.
	// A run starts at most this long before its first trigger and can
	// rejoin only on this grid: a finer grid simulates less of each run
	// but captures more checkpoints (each holds RAM pages and control
	// blocks). 250 ms simulates about 28% fewer E3-fig3 events than 1 s
	// for less CPU; 100 ms saves no more CPU and holds more memory
	// (DESIGN.md "Golden pass").
	checkpointSpacing = 250 * sim.Millisecond
	// maxTimelines bounds the timelines one machine keeps; the least
	// recently used one is dropped past it.
	maxTimelines = 4
)

// checkpoint is the machine state at one instant of a profile's
// fault-free trajectory. The append-only logs (trace, UART captures, LED
// toggles, hypervisor console) are held as lengths only; their content
// is the process-wide golden log of the profile, whose newest version
// covers every checkpoint captured so far.
type checkpoint struct {
	golden *goldenLineage
	board  *board.Snapshot
	hv     *jailhouse.Snapshot
	linux  *rootlinux.Snapshot
	// kernels[i] is Machine.rtosArena[i]'s content, nil for the kernel
	// of a destroyed cell: nothing reaches it any more, and the arena
	// deep-resets a kernel before handing it out again.
	kernels []*freertos.KernelSnapshot
	// machine is the machine's own bookkeeping.
	machine machineState

	// calls and total are the injector's matching-call counters at the
	// checkpoint (zero at the post-boot image: no hook runs during boot).
	calls callCounts
	total uint64
}

// at returns the checkpoint's virtual time.
func (c *checkpoint) at() sim.Time { return c.board.Now() }

// goldenLogs is one published version of a profile's fault-free logs.
// Versions are immutable; a later capture publishes a longer one.
type goldenLogs struct {
	board   *board.Log
	console *sim.Prefix[string]
}

// goldenLineage holds the newest published version of one profile's
// fault-free logs. Every version is a prefix of the next, so restores
// always read the newest one and superseded versions (with the backing
// arrays they outgrew) are left to the garbage collector.
type goldenLineage struct {
	cur atomic.Pointer[goldenLogs]
}

// goldenStore keeps each profile's fault-free logs once per process,
// shared by all of the process's machines.
var goldenStore struct {
	sync.Mutex
	byProfile map[profileKey]*goldenLineage
}

// publishGolden extends the profile's golden logs to cover m's current
// logs, which must lie on the profile's fault-free trajectory, and
// returns the profile's lineage.
func publishGolden(pk profileKey, m *Machine) *goldenLineage {
	goldenStore.Lock()
	defer goldenStore.Unlock()
	if goldenStore.byProfile == nil {
		goldenStore.byProfile = make(map[profileKey]*goldenLineage)
	}
	g := goldenStore.byProfile[pk]
	if g == nil {
		g = &goldenLineage{}
		g.cur.Store(&goldenLogs{})
		goldenStore.byProfile[pk] = g
	}
	cur := g.cur.Load()
	g.cur.Store(&goldenLogs{
		board:   m.Board.Publish(cur.board),
		console: m.HV.PublishConsole(cur.console),
	})
	return g
}

// timelineKey identifies one of a machine's golden timelines: what
// shapes its matching-call count, the plan's call filter. The
// fault-free trajectory itself is fixed by the machine's boot profile,
// and calls count whether or not the injector is armed.
type timelineKey struct {
	points uint64 // bit p set: the plan targets injection point p
	cpu    int
	cell   string
}

func timelineKeyOf(plan *TestPlan) timelineKey {
	k := timelineKey{cpu: plan.TargetCPU, cell: plan.TargetCell}
	for _, p := range plan.Points {
		// The hypervisor only calls the hook with its own points, all
		// inside the mask; a point outside it never matches a call.
		if p >= 0 && p < 64 {
			k.points |= 1 << uint(p)
		}
	}
	return k
}

// timeline is one machine's checkpoints of a golden trajectory under one
// call filter.
type timeline struct {
	key timelineKey
	// cps[0] is the profile's post-boot image; cps[i] lies i·spacing
	// later. The last one is the frontier.
	cps []*checkpoint
	// calls holds the virtual time of every matching call up to the
	// frontier, in call order: calls[n-1] is the time of call n.
	calls []sim.Time
	used  uint64 // LRU stamp
}

func (tl *timeline) frontier() *checkpoint { return tl.cps[len(tl.cps)-1] }

// latest returns the latest checkpoint at or before horizon that lies
// before the first matching call on which inj would fire.
func (tl *timeline) latest(inj *Injector, horizon sim.Time) *checkpoint {
	first := inj.firstTrigger(tl.calls, 0)
	best := tl.cps[0]
	for _, c := range tl.cps[1:] {
		if c.at() > horizon || (first > 0 && c.total >= first) {
			break
		}
		best = c
	}
	return best
}

// timeline returns the machine's timeline for key, creating it (rooted
// at the post-boot image boot) when missing and evicting the least
// recently used one past maxTimelines.
func (m *Machine) timeline(key timelineKey, boot *checkpoint) *timeline {
	m.lruClock++
	for _, tl := range m.timelines {
		if tl.key == key {
			tl.used = m.lruClock
			return tl
		}
	}
	tl := &timeline{key: key, cps: []*checkpoint{boot}, used: m.lruClock}
	if len(m.timelines) < maxTimelines {
		m.timelines = append(m.timelines, tl)
		return tl
	}
	victim := 0
	for i, t := range m.timelines {
		if t.used < m.timelines[victim].used {
			victim = i
		}
	}
	m.timelines[victim] = tl
	return tl
}

// capture checkpoints the machine's current state, which must lie on
// the fault-free trajectory of its profile, publishing the logs it
// covers to the profile's golden store.
func (m *Machine) capture() *checkpoint {
	c := &checkpoint{
		golden:  publishGolden(m.profile, m),
		board:   m.Board.CaptureSnapshot(),
		hv:      m.HV.CaptureSnapshot(),
		linux:   m.Linux.CaptureSnapshot(),
		kernels: make([]*freertos.KernelSnapshot, m.rtosNext),
		machine: m.machineState,
	}
	for i := range c.kernels {
		if k := m.rtosArena[i]; m.live(k) {
			ks := k.CaptureSnapshot()
			c.kernels[i] = &ks
		}
	}
	return c
}

// restoreTo rewinds the machine to checkpoint c and reseeds its RNG.
// The injection hook is cleared; the run installs its own afterwards.
func (m *Machine) restoreTo(c *checkpoint, seed uint64) {
	start := time.Now()
	logs := c.golden.cur.Load()
	dirtied, restored := m.Board.RestoreSnapshot(c.board, seed, logs.board)
	m.HV.RestoreSnapshot(c.hv, logs.console)
	m.restoreGuests(c)
	m.simFault = ""
	metSnapshotRestore.ObserveSince(start)
	metPagesDirtied.Add(uint64(dirtied))
	metPagesRestored.Add(uint64(restored))
}

// timelineRun is what prepare hands the next Machine.Run: the run's
// golden timeline and injector.
type timelineRun struct {
	tl  *timeline
	inj *Injector
}

// prepare rewinds a pooled machine for one run of plan and arms inj:
// the run starts from the latest checkpoint on its timeline that inj
// cannot have fired before, with the injector's counters preloaded to
// the golden counts at that instant. fresh reports that m is already at
// the post-boot state for opts (just built, post-boot image captured).
// A timeline that stops short of the run's horizon is first recorded up
// to it (see extend), so runs never capture checkpoints themselves.
// Returns the run's start instant (the post-boot time).
func (m *Machine) prepare(opts MachineOptions, plan *TestPlan, inj *Injector, fresh bool) (sim.Time, error) {
	boot, err := m.bootImage(opts)
	if err != nil {
		return 0, err
	}
	start := boot.at()
	horizon := start + plan.EffectiveDuration()
	armRun(inj, plan, start)
	tl := m.timeline(timelineKeyOf(plan), boot)
	if tl.frontier().at()+checkpointSpacing <= horizon {
		m.extend(tl, plan, horizon)
		fresh = false
	}
	c := tl.latest(inj, horizon)
	if !fresh || c != boot {
		m.restoreTo(c, opts.Seed)
	}
	inj.preload(c)
	if c != boot {
		metCheckpointRestores.Inc()
		metCheckpointSkipped.Add(virtualMillis(c.at() - start))
	}
	m.run = timelineRun{tl: tl, inj: inj}
	return start, nil
}

// extend is the golden pass: from tl's frontier it runs fault-free,
// with an injector that tapes the plan's matching calls and never
// fires, capturing a checkpoint every checkpointSpacing up to horizon
// (see record). The events it delivers count towards the sim-event
// metrics; the run's own restore clears the engine's counters after it.
func (m *Machine) extend(tl *timeline, plan *TestPlan, horizon sim.Time) {
	f := tl.frontier()
	m.restoreTo(f, 0)
	inj := &Injector{plan: plan, now: m.Board.Now, taping: true}
	inj.preload(f)
	m.HV.Hook = inj.Hook
	m.record(tl, inj, horizon)
	countSimEvents(m.Board.Engine)
	metTimelineExtension.Add(virtualMillis(tl.frontier().at() - f.at()))
}

// record runs the machine from tl's frontier in checkpointSpacing
// segments, capturing a checkpoint at each boundary and moving the
// calls inj taped into tl, until the next boundary would pass horizon
// or the engine halts. Splitting Engine.Run at a boundary is exact:
// every event at or before the boundary runs in the first segment, the
// watchdog's same-instant count restarts only where time advances
// anyway, and the boundary clamp of the clock is unobservable because
// no event runs between segments.
func (m *Machine) record(tl *timeline, inj *Injector, horizon sim.Time) {
	eng := m.Board.Engine
	for next := tl.frontier().at() + checkpointSpacing; next <= horizon; next += checkpointSpacing {
		_ = eng.Run(next)
		if halted, _ := eng.Halted(); halted {
			return
		}
		c := m.capture()
		c.calls, c.total = inj.calls, inj.callTotal
		tl.calls = append(tl.calls, inj.tape...)
		inj.tape = inj.tape[:0]
		tl.cps = append(tl.cps, c)
		metCheckpointCaptures.Inc()
	}
}

// Golden fast-forward (see DESIGN.md "Golden fast-forward"). Once a
// faulty run is back in the golden state, simulating on repeats the
// golden run exactly until its injector next fires, so the run jumps to
// the last golden checkpoint before that call — the horizon when no
// firing is left (the convergence cut-off) — and takes the stretch it
// skips from its timeline.

// converge runs the rest of a timeline run to horizon in
// checkpointSpacing segments on the timeline's grid — the split the
// golden pass uses (see record) — and at each boundary where the run has rejoined its golden
// trajectory jumps it ahead (see rejoin), stopping once it lands on the
// horizon.
func (m *Machine) converge(r timelineRun, horizon sim.Time) {
	eng := m.Board.Engine
	origin := r.tl.cps[0].at()
	for {
		b := origin + ((eng.Now()-origin)/checkpointSpacing+1)*checkpointSpacing
		if b > horizon {
			break
		}
		_ = eng.Run(b)
		if halted, _ := eng.Halted(); halted {
			return
		}
		if m.rejoin(r, b, horizon) {
			return
		}
	}
	_ = eng.Run(horizon)
}

// rejoin checks, at boundary b, whether everything that drives the
// run's future equals the golden checkpoint at b, and if so splices the
// golden stretch up to the run's target into the machine: the latest
// checkpoint, at most the horizon, whose golden call count lies below
// the injector's next firing call. The run goes on from the target with
// the RNG it has — a golden stretch draws nothing from it — and simulates
// that injection for real. rejoin reports whether the run landed on the
// horizon. The checks run cheapest first and the first failure exits; a
// target at b skips the state checks, and a refused one counts towards
// certify_core_rejoin_refused_total.
func (m *Machine) rejoin(r timelineRun, b, horizon sim.Time) bool {
	tl, inj := r.tl, r.inj
	origin := tl.cps[0].at()
	if (horizon-origin)%checkpointSpacing != 0 {
		return false // no checkpoint can sit at the horizon
	}
	// 1. The timeline reaches the horizon: only a golden pass that
	// halted leaves it short.
	ib, ih := int((b-origin)/checkpointSpacing), int((horizon-origin)/checkpointSpacing)
	if ih >= len(tl.cps) {
		return false
	}
	cb := tl.cps[ib]
	// 2. The target: the injector's first firing golden call after b,
	// numbered on from the run's own count, bounds it.
	fire := inj.firstTrigger(tl.calls[cb.total:tl.cps[ih].total], inj.callTotal)
	it := ib
	for it < ih && (fire == 0 || tl.cps[it+1].total < cb.total+fire) {
		it++
	}
	if it == ib {
		return false
	}
	// 3–8. The machine is healthy and its state matches the golden
	// checkpoint at b.
	if refused := m.mismatch(cb); refused != nil {
		refused.Inc()
		return false
	}
	ct := tl.cps[it]
	m.splice(cb, ct)
	inj.advance(cb, ct)
	skipped := virtualMillis(ct.at() - b)
	if it == ih {
		metCutoffRuns.Inc()
		metCutoffSkipped.Add(skipped)
		return true
	}
	metFastForwards.Inc()
	metFastForwardSkipped.Add(skipped)
	return false
}

// mismatch returns the refusal counter of the first check, cheapest
// first, that tells the machine apart from checkpoint c, or nil when it
// matches.
func (m *Machine) mismatch(c *checkpoint) *obs.Counter {
	brd := m.Board
	switch {
	case m.Tainted():
		return refusedTainted
	case !brd.MatchesCPUs(c.board):
		return refusedCPUs
	case !brd.MatchesDevices(c.board):
		return refusedDevices
	case m.machineState != c.machine:
		return refusedMachine
	case !m.HV.Matches(c.hv):
		return refusedHypervisor
	case !m.Linux.Matches(c.linux, func(live, golden sim.Event) bool { return brd.SameEvent(live, c.board, golden) }):
		return refusedRootLinux
	case !m.matchesKernels(c):
		return refusedKernels
	case !brd.MatchesQueue(c.board):
		return refusedQueue
	case !brd.MatchesRAM(c.board):
		return refusedRAM
	}
	return nil
}

// matchesKernels reports whether exactly c's kernels are live and each
// equals its capture.
func (m *Machine) matchesKernels(c *checkpoint) bool {
	for i, ks := range c.kernels {
		k := m.rtosArena[i]
		if live := m.live(k); live != (ks != nil) || live && !k.Matches(*ks) {
			return false
		}
	}
	return true
}

// live reports whether FreeRTOS kernel k is reachable: the machine's
// current kernel or a cell's guest.
func (m *Machine) live(k *freertos.Kernel) bool { return k == m.RTOS || m.HV.Hosts(k) }

// restoreGuests writes c's root Linux state, kernel contents and
// bookkeeping back into the machine.
func (m *Machine) restoreGuests(c *checkpoint) {
	m.Linux.RestoreSnapshot(c.linux)
	for i, ks := range c.kernels {
		if ks != nil {
			m.rtosArena[i].RestoreSnapshot(*ks)
		}
	}
	m.machineState = c.machine
}

// splice moves a machine that matches golden checkpoint from to the
// later checkpoint to of the same timeline: every state layer becomes
// to's, and every log keeps the run's own content and gains the golden
// content between the two checkpoints.
func (m *Machine) splice(from, to *checkpoint) {
	logs := to.golden.cur.Load()
	m.Board.Splice(from.board, to.board, logs.board)
	m.HV.Splice(from.hv, to.hv, logs.console)
	m.restoreGuests(to)
}

// virtualMillis returns d in whole virtual milliseconds, the unit of the
// timeline counters.
func virtualMillis(d sim.Time) uint64 { return uint64(d / sim.Millisecond) }

package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/guest/freertos"
	"github.com/dessertlab/certify/internal/guest/rootlinux"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

// Golden timeline (see DESIGN.md "Golden timeline"). Until its first
// injection, every run of a campaign replays the same fault-free
// trajectory: boot draws nothing from the run seed, the machine RNG is
// drawn only on corruption paths, and the injector's first trigger is
// fixed by its phase and the golden call count. A warm machine therefore
// keeps checkpoints of that trajectory every checkpointSpacing of
// virtual time, captured lazily by ordinary runs that have not injected
// yet, and starts each run from the latest checkpoint its injector
// provably cannot have fired before. The post-boot image is checkpoint 0.

const (
	// checkpointSpacing is the virtual time between golden checkpoints.
	checkpointSpacing = sim.Second
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
	profile  profileKey
	golden   *goldenLineage
	board    *board.Snapshot
	hv       *jailhouse.Snapshot
	linux    *rootlinux.Snapshot
	kernels  []freertos.KernelSnapshot // Machine.rtosArena[:len(kernels)]
	rtos     *freertos.Kernel
	rtosNext int
	cellID   uint32

	// calls and total are the injector's matching-call counters at the
	// checkpoint (zero at the post-boot image: no hook runs during boot).
	calls map[jailhouse.InjectionPoint]uint64
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

// timelineKey identifies a golden timeline: everything that shapes the
// fault-free trajectory (the boot profile) and its matching-call count
// (the plan's call filter), plus the arm offset.
type timelineKey struct {
	profile   profileKey
	points    uint64 // bit p set: the plan targets injection point p
	cpu       int
	cell      string
	armOffset sim.Time
}

func timelineKeyOf(pk profileKey, plan *TestPlan, armOffset sim.Time) timelineKey {
	k := timelineKey{profile: pk, cpu: plan.TargetCPU, cell: plan.TargetCell, armOffset: armOffset}
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
	first := inj.firstTrigger(tl.calls)
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
// the fault-free trajectory of profile pk, publishing the logs it
// covers to the profile's golden store.
func (m *Machine) capture(pk profileKey) *checkpoint {
	c := &checkpoint{
		profile:  pk,
		golden:   publishGolden(pk, m),
		board:    m.Board.CaptureSnapshot(),
		hv:       m.HV.CaptureSnapshot(),
		linux:    m.Linux.CaptureSnapshot(),
		kernels:  make([]freertos.KernelSnapshot, m.rtosNext),
		rtos:     m.RTOS,
		rtosNext: m.rtosNext,
		cellID:   m.CellID,
	}
	for i := range c.kernels {
		c.kernels[i] = m.rtosArena[i].CaptureSnapshot()
	}
	m.at = c
	return c
}

// restoreTo rewinds the machine to checkpoint c and reseeds its RNG.
// Logs already golden up to the machine's last capture or restore on
// the same profile are not copied again. The injection hook comes back
// as captured (nil); the run installs its own afterwards.
func (m *Machine) restoreTo(c *checkpoint, seed uint64) {
	start := time.Now()
	var fromBoard *board.Snapshot
	var fromHV *jailhouse.Snapshot
	if m.at != nil && m.at.profile == c.profile {
		fromBoard, fromHV = m.at.board, m.at.hv
	}
	logs := c.golden.cur.Load()
	dirtied, restored := m.Board.RestoreSnapshot(c.board, seed, logs.board, fromBoard)
	m.HV.RestoreSnapshot(c.hv, logs.console, fromHV)
	m.Linux.RestoreSnapshot(c.linux)
	for i, ks := range c.kernels {
		m.rtosArena[i].RestoreSnapshot(ks)
	}
	m.RTOS = c.rtos
	m.rtosNext = c.rtosNext
	m.CellID = c.cellID
	m.simFault = ""
	m.at = c
	metSnapshotRestore.ObserveSince(start)
	metPagesDirtied.Add(uint64(dirtied))
	metPagesRestored.Add(uint64(restored))
}

// recording is a run's license to extend a timeline: set by prepare when
// the run starts at the frontier, consumed by the next Machine.Run.
type recording struct {
	tl  *timeline
	inj *Injector
}

// prepare rewinds a warm machine for one run of plan and arms inj: the
// run starts from the latest checkpoint on its timeline that inj cannot
// have fired before, with the injector's counters preloaded to the
// golden counts at that instant. fresh reports that m is already at the
// post-boot state for opts (just built, post-boot image captured). A run
// that starts at the timeline's frontier records further checkpoints as
// it goes. Returns the run's start instant (the post-boot time).
func (m *Machine) prepare(opts MachineOptions, plan *TestPlan, inj *Injector, fresh bool) (sim.Time, error) {
	pk := profileOf(opts)
	boot := m.boots[pk]
	if !fresh && (boot == nil || m.Tainted()) {
		// A profile this machine never booted, or a run that left it
		// untrusted: rebuild the post-boot state the slow way.
		if err := m.Restore(opts); err != nil {
			return 0, err
		}
		boot, fresh = m.boots[pk], true
	}
	start := boot.at()
	armOffset := armRun(inj, plan, start)
	tl := m.timeline(timelineKeyOf(pk, plan, armOffset), boot)
	c := tl.latest(inj, start+plan.EffectiveDuration())
	if !fresh || c != boot {
		m.restoreTo(c, opts.Seed)
	}
	inj.preload(c.calls, c.total)
	if c != boot {
		metCheckpointRestores.Inc()
		metCheckpointSkipped.Add(uint64((c.at() - start) / sim.Second))
	}
	if c == tl.frontier() {
		m.rec = recording{tl: tl, inj: inj}
		inj.taping = true
	}
	return start, nil
}

// record runs the fault-free stretch of a run past its timeline's
// frontier in checkpointSpacing segments, capturing a checkpoint at each
// boundary, until the run injects, halts or would pass horizon.
// Splitting Engine.Run at a boundary is exact: every event at or before
// the boundary runs in the first segment, the watchdog's same-instant
// count restarts only where time advances anyway, and the boundary clamp
// of the clock is unobservable because no event runs between segments.
func (m *Machine) record(r recording, horizon sim.Time) {
	eng := m.Board.Engine
	defer func() {
		r.inj.taping = false
		r.inj.tape = r.inj.tape[:0]
	}()
	for {
		next := r.tl.frontier().at() + checkpointSpacing
		if next > horizon {
			return
		}
		_ = eng.Run(next)
		if halted, _ := eng.Halted(); halted || len(r.inj.records) > 0 {
			return
		}
		c := m.capture(r.tl.key.profile)
		c.calls, c.total = r.inj.Calls(), r.inj.TotalCalls()
		r.tl.calls = append(r.tl.calls, r.inj.tape...)
		r.inj.tape = r.inj.tape[:0]
		r.tl.cps = append(r.tl.cps, c)
		metCheckpointCaptures.Inc()
	}
}

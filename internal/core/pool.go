package core

import (
	"slices"
	"sync"
	"time"
)

// MachinePool recycles fully built machines across experiment runs. It
// is the only source of warm machines: campaigns without a pool of
// their own get a private one. Every machine serves the one boot
// profile it was built for. Get hands out an idle machine of the
// requested profile rewound to its post-boot state via Machine.Restore
// — a checkpoint restore that copies back only dirtied RAM pages, log
// tails and captured control blocks, never replaying the boot path —
// and builds cold, capturing the post-boot image, only when no machine
// of the profile is idle. A cold build first drops the least recently
// parked idle machine of another profile, if there is one, so the pool
// never holds more machines than it ever had Gets outstanding at once:
// a long-lived pool fed several profiles in turn (serve) replaces
// machines instead of keeping one set per profile. The experiment
// runner goes further and rewinds a pooled machine straight to the
// latest golden checkpoint its run may start from (see DESIGN.md
// "Golden timeline"); pooled machines keep their timelines across Gets.
//
// The pool is safe for concurrent use; the machines it hands out are
// not — exactly one goroutine owns a machine between Get and Put. A
// pooled machine must only be Put back when nothing still reads from it
// (transcripts are copied out by the runner before release).
//
// Admissibility rests on the differential determinism suite: a run on a
// pooled machine must be byte-identical — outcomes, latencies, per-run
// trace hashes — to the same run on a cold-built machine. Get therefore
// never hides a restore failure by quietly rebuilding: a warm boot
// that fails where a cold boot would succeed is a state leak, and it
// must surface.
type MachinePool struct {
	mu     sync.Mutex
	idle   []*Machine
	builds uint64
	reuses uint64
}

// NewMachinePool returns an empty pool. The zero value is also ready to
// use; the constructor exists for call sites that share one pool across
// components.
func NewMachinePool() *MachinePool { return &MachinePool{} }

// Get returns a machine booted for opts: a pooled machine of opts'
// profile rewound via Machine.Restore when one is idle, a cold build
// otherwise. A cold build captures its post-boot snapshot before first
// use, so the machine's later Gets restore instead of rebuilding.
func (p *MachinePool) Get(opts MachineOptions) (*Machine, error) {
	m, fresh, err := p.take(opts)
	if err != nil || fresh {
		return m, err
	}
	rewind := time.Now()
	if err := m.Restore(opts); err != nil {
		// The machine is mid-boot garbage now; drop it rather than pool
		// it, and report the failure instead of masking a possible leak
		// with a silent rebuild.
		return nil, err
	}
	metRestore.ObserveSince(rewind)
	return m, nil
}

// take hands out the most recently parked idle machine of opts'
// profile as its last run left it (fresh false; the caller rewinds it —
// Get to the post-boot image, the experiment runner to a golden
// checkpoint), or a cold build for opts with its post-boot image
// captured (fresh true). A cold build replaces the least recently
// parked idle machine (idle is in parking order), which take drops.
func (p *MachinePool) take(opts MachineOptions) (m *Machine, fresh bool, err error) {
	start := time.Now()
	defer metPoolGet.ObserveSince(start)
	pk := profileOf(opts)
	p.mu.Lock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].profile == pk {
			m = p.idle[i]
			p.idle = slices.Delete(p.idle, i, i+1)
			break
		}
	}
	evict := m == nil && len(p.idle) > 0
	if m != nil {
		p.reuses++
	} else {
		p.builds++
	}
	if evict {
		p.idle = slices.Delete(p.idle, 0, 1)
	}
	p.mu.Unlock()

	if m != nil {
		metPoolReuses.Inc()
		return m, false, nil
	}
	metPoolColdBuilds.Inc()
	if evict {
		metPoolEvictions.Inc()
	}
	if m, err = BuildMachine(opts); err != nil {
		return nil, false, err
	}
	m.CaptureSnapshot()
	return m, true, nil
}

// Put returns a machine to the pool for the next Get to rewind — unless
// the run left it tainted (sim-fault or machine wedge): a recovered
// panic or a wedged event storm may have corrupted layer state in ways
// no in-place rewind is trusted to undo, so such machines are dropped
// (counted on /metrics) and the pool rebuilds cold later. Put(nil) is a
// no-op.
func (p *MachinePool) Put(m *Machine) {
	if m == nil {
		return
	}
	if m.Tainted() {
		metPoolDrops.Inc()
		return
	}
	start := time.Now()
	p.mu.Lock()
	p.idle = append(p.idle, m)
	p.mu.Unlock()
	metPoolPut.ObserveSince(start)
}

// Stats reports how many Gets built cold and how many reused a warm
// machine — the bench and the race test read these.
func (p *MachinePool) Stats() (builds, reuses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.builds, p.reuses
}

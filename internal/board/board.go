// Package board models the paper's test hardware: a Banana Pi M1
// (Allwinner A20 SoC — two Cortex-A7 cores, 1 GiB DRAM, 16550-class
// UARTs, a GIC-400 interrupt controller and the LED GPIO line). The board
// is a passive substrate: the hypervisor and guests drive the CPUs; the
// board provides the physical address map, the devices and per-CPU timers.
package board

import (
	"fmt"
	"strconv"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/gic"
	"github.com/dessertlab/certify/internal/gpio"
	"github.com/dessertlab/certify/internal/memmap"
	"github.com/dessertlab/certify/internal/sim"
	"github.com/dessertlab/certify/internal/uart"
)

// Physical address map of the modelled Allwinner A20.
const (
	DRAMBase uint64 = 0x4000_0000
	DRAMSize uint64 = 1 << 30 // 1 GiB

	GPIOBase  uint64 = 0x01C2_0800
	GPIOSize  uint64 = 0x400
	UART0Base uint64 = 0x01C2_8000 // root cell console
	UART7Base uint64 = 0x01C2_9C00 // non-root cell console ("USART" in the paper)
	GICDBase  uint64 = 0x01C8_1000 // distributor (trap-and-emulate for cells)
	GICCBase  uint64 = 0x01C8_2000 // CPU interface
)

// Interrupt lines on the modelled SoC.
const (
	IRQUart0 = 33
	IRQUart7 = 52
)

// NumCPUs is the Banana Pi M1's core count.
const NumCPUs = 2

// mmioRange maps a physical window to device handlers.
type mmioRange struct {
	name  string
	base  uint64
	size  uint64
	read  func(cpu int, off uint64) (uint32, error)
	write func(cpu int, off uint64, v uint32) error
}

// BusFault reports a physical access that hit no device and no RAM —
// an external abort on real hardware.
type BusFault struct {
	Addr  uint64
	Write bool
}

// Error implements error.
func (b *BusFault) Error() string {
	op := "read"
	if b.Write {
		op = "write"
	}
	return fmt.Sprintf("board: bus fault on %s at %#x", op, b.Addr)
}

// Event kinds of a machine's handler table. Every event a machine
// schedules names one of these plus a target and an argument, so a
// queued event is plain data: checkpoints copy it, digests fold it, and
// a faulty run's queue can be compared with the golden one. The board
// installs the table (its own timer handler included); each layer
// registers the handlers of its kinds through Board.Handle when it is
// constructed.
const (
	EvTimer           sim.HandlerKind = iota // generic timer tick; target: CPU
	EvCellCPUBoot                            // jailhouse: start-SGI guest boot; target: CPU, arg: cell ID
	EvPSCIBoot                               // jailhouse: PSCI CPU_ON guest boot; target: CPU, arg: cell ID
	EvLinuxHousekeep                         // root Linux distributor housekeeping
	EvLinuxStateQuery                        // root Linux "jailhouse cell state" watchdog
	EvLinuxRecreate                          // root Linux E1 destroy/recreate cycle
	EvDelayedCreate                          // machine's delayed cell bring-up (E2)
	EvRaiseSPI                               // fault model: latch an SPI; target: IRQ
	EvSendSGI                                // fault model: SGI; target: source CPU, arg: mask<<8 | SGI ID
	NumEventKinds
)

// eventKindNames names the event kinds for the flight recorder's
// per-kind dispatch counts.
var eventKindNames = [NumEventKinds]string{
	EvTimer:           "timer",
	EvCellCPUBoot:     "cell_cpu_boot",
	EvPSCIBoot:        "psci_boot",
	EvLinuxHousekeep:  "linux_housekeep",
	EvLinuxStateQuery: "linux_state_query",
	EvLinuxRecreate:   "linux_recreate",
	EvDelayedCreate:   "delayed_create",
	EvRaiseSPI:        "raise_spi",
	EvSendSGI:         "send_sgi",
}

// EventKindName returns the metric label of event kind k; a kind past
// the board's table (a test's own handler) is "kind_<k>".
func EventKindName(k sim.HandlerKind) string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "kind_" + strconv.Itoa(int(k))
}

// Timer is a per-CPU generic timer that raises the virtual-timer PPI.
type Timer struct {
	ev sim.Event // the periodic tick; zero when stopped
}

// Board is one simulated Banana Pi M1.
type Board struct {
	Engine *sim.Engine
	CPUs   []*armv7.CPU
	RAM    *memmap.RAM
	GIC    *gic.Distributor
	UART0  *uart.UART
	UART7  *uart.UART
	GPIO   gpio.Port

	timers []Timer
	mmio   []mmioRange
}

// Options tunes board assembly.
type Options struct {
	// TraceRecordHint/TraceArgHint pre-size the engine trace's arenas
	// (sim.Trace.Grow) — the plan-profile capacity estimate. Zero means
	// no pre-sizing.
	TraceRecordHint int
	TraceArgHint    int
}

// New builds a powered-on board with the given deterministic seed.
func New(seed uint64, opts Options) *Board {
	eng := sim.NewEngine(seed)
	eng.Trace().Grow(opts.TraceRecordHint, opts.TraceArgHint)
	b := &Board{
		Engine: eng,
		RAM:    memmap.NewRAM(DRAMBase, DRAMSize),
		GIC:    gic.New(NumCPUs),
		UART0:  uart.New(eng.Now),
		UART7:  uart.New(eng.Now),
		timers: make([]Timer, NumCPUs),
	}
	for i := 0; i < NumCPUs; i++ {
		b.CPUs = append(b.CPUs, armv7.NewCPU(i))
	}
	b.Handle(EvTimer, func(cpu int32, _ uint64) { _ = b.GIC.RaisePPI(int(cpu), gic.IRQVirtualTimer) })
	b.addMMIO("uart0", UART0Base, uart.RegionSize,
		func(_ int, off uint64) (uint32, error) { return b.UART0.ReadReg(off) },
		func(_ int, off uint64, v uint32) error { return b.UART0.WriteReg(off, v) })
	b.addMMIO("uart7", UART7Base, uart.RegionSize,
		func(_ int, off uint64) (uint32, error) { return b.UART7.ReadReg(off) },
		func(_ int, off uint64, v uint32) error { return b.UART7.WriteReg(off, v) })
	b.addMMIO("gicd", GICDBase, gic.RegionSize,
		func(_ int, off uint64) (uint32, error) { return b.GIC.ReadReg(off) },
		func(cpu int, off uint64, v uint32) error { return b.GIC.WriteReg(off, v, cpu) })
	b.addMMIO("gpio", GPIOBase, GPIOSize,
		func(_ int, off uint64) (uint32, error) {
			if b.GPIO.Get() {
				return 1, nil
			}
			return 0, nil
		},
		func(_ int, off uint64, v uint32) error {
			b.GPIO.Set(v&1 != 0)
			return nil
		})
	return b
}

// Snapshot is the whole board at one instant: scheduler (events, clock,
// trace position), RAM image, interrupt controller, both UARTs, the LED
// line, every core and the timer bookkeeping. The append-only logs —
// trace records and UART lines — are held as lengths only; their
// content lives once in the golden Log a restore is handed. The
// timers are Event handles into the engine slab; the engine snapshot
// restores slot generations exactly, so they remain valid after a
// restore.
type Snapshot struct {
	engine *sim.EngineSnapshot
	ram    *memmap.RAMSnapshot
	gic    gic.Snapshot
	uart0  *uart.Snapshot
	uart7  *uart.Snapshot
	gpio   gpio.Port
	cpus   [NumCPUs]armv7.State
	timers []Timer
}

// Now returns the virtual time of the snapshot.
func (s *Snapshot) Now() sim.Time { return s.engine.Now() }

// Log is the published fault-free prefix of the board's append-only
// logs — trace and both UARTs' lines — shared read-only by every machine
// on one golden trajectory. A published Log is never written again;
// Publish returns a new one.
type Log struct {
	trace *sim.TraceLog
	uart0 uart.Log
	uart7 uart.Log
}

// CaptureSnapshot copies the board state, records its log lengths, and
// switches the RAM into dirty-page tracking so later restores copy back
// only touched pages.
func (b *Board) CaptureSnapshot() *Snapshot {
	s := &Snapshot{
		engine: b.Engine.CaptureSnapshot(),
		ram:    b.RAM.CaptureSnapshot(),
		gic:    b.GIC.CaptureSnapshot(),
		uart0:  b.UART0.CaptureSnapshot(),
		uart7:  b.UART7.CaptureSnapshot(),
		gpio:   b.GPIO,
		timers: append([]Timer(nil), b.timers...),
	}
	for i, c := range b.CPUs {
		s.cpus[i] = c.State
	}
	return s
}

// Publish returns l extended with the board's logs past l's end. The
// board must be a later state of the golden run l was published from; a
// nil l starts a new log.
func (b *Board) Publish(l *Log) *Log {
	if l == nil {
		l = &Log{}
	}
	return &Log{
		trace: b.Trace().Publish(l.trace),
		uart0: b.UART0.Publish(l.uart0),
		uart7: b.UART7.Publish(l.uart7),
	}
}

// RestoreSnapshot rewinds the board to a captured state with a fresh RNG
// seed, reusing every live buffer. The logs are rewritten from the
// golden log l, which must cover the snapshot: the trace reads l's
// records in place, and the UART lines are copied from it. Returns how
// many RAM pages the preceding run dirtied and how many the restore
// copied back — the flight recorder's dirty-page metrics. The
// observable result must be indistinguishable from the straight run
// that reached the snapshot (the differential and checkpoint exactness
// suites in internal/core hold it to that).
func (b *Board) RestoreSnapshot(s *Snapshot, seed uint64, l *Log) (dirtied, restored int) {
	b.Engine.RestoreSnapshot(s.engine, seed, l.trace)
	dirtied, restored = b.RAM.RestoreSnapshot(s.ram)
	b.GIC.RestoreSnapshot(s.gic)
	b.UART0.RestoreSnapshot(s.uart0, l.uart0)
	b.UART7.RestoreSnapshot(s.uart7, l.uart7)
	b.GPIO = s.gpio
	b.restoreCPUs(s)
	return dirtied, restored
}

// The Matches* checks compare the board's live state with a golden
// snapshot, a layer at a time so a caller can order them cheapest first
// and stop at the first difference. Logs are not state and are never
// compared; handles are compared by the event they refer to.

// MatchesCPUs reports whether every core's architectural state equals
// the snapshot's.
func (b *Board) MatchesCPUs(s *Snapshot) bool {
	for i, c := range b.CPUs {
		if c.State != s.cpus[i] {
			return false
		}
	}
	return true
}

// MatchesDevices reports whether the interrupt controller, both UARTs,
// the LED level and the timer programming equal the snapshot's.
func (b *Board) MatchesDevices(s *Snapshot) bool {
	if !b.GIC.Matches(s.gic) || !b.UART0.Matches(s.uart0) || !b.UART7.Matches(s.uart7) || !b.GPIO.Matches(s.gpio) {
		return false
	}
	for i, t := range b.timers {
		if !b.SameEvent(t.ev, s, s.timers[i].ev) {
			return false
		}
	}
	return true
}

// MatchesQueue reports whether the engine's clock and queued events
// equal the snapshot's (sim.Engine.QueueMatches).
func (b *Board) MatchesQueue(s *Snapshot) bool { return b.Engine.QueueMatches(s.engine) }

// MatchesRAM reports whether RAM content equals the snapshot's image.
func (b *Board) MatchesRAM(s *Snapshot) bool { return b.RAM.Matches(s.ram) }

// SameEvent reports whether live handle ev and handle golden, held by
// state captured with s, refer to the same queued event.
func (b *Board) SameEvent(ev sim.Event, s *Snapshot, golden sim.Event) bool {
	return b.Engine.SameEvent(ev, s.engine, golden)
}

// Splice moves a board whose state matches golden snapshot from to the
// later golden snapshot to of the same lineage without simulating the
// stretch between them: every state layer becomes to's, and each log —
// trace and UART lines — keeps this run's content and gains the golden
// content between the two snapshots from l; the LED toggle count gains
// the golden toggles between them. The RNG is kept.
func (b *Board) Splice(from, to *Snapshot, l *Log) {
	b.Engine.Splice(from.engine, to.engine, l.trace)
	b.RAM.Splice(from.ram, to.ram)
	b.GIC.RestoreSnapshot(to.gic)
	b.UART0.Splice(from.uart0, to.uart0, l.uart0)
	b.UART7.Splice(from.uart7, to.uart7, l.uart7)
	b.GPIO.Splice(from.gpio, to.gpio)
	b.restoreCPUs(to)
}

// restoreCPUs sets every core's architectural state and the timer
// programming to s's.
func (b *Board) restoreCPUs(s *Snapshot) {
	for i, c := range b.CPUs {
		c.State = s.cpus[i]
	}
	b.timers = append(b.timers[:0], s.timers...)
}

func (b *Board) addMMIO(name string, base, size uint64,
	read func(int, uint64) (uint32, error),
	write func(int, uint64, uint32) error) {
	b.mmio = append(b.mmio, mmioRange{name: name, base: base, size: size, read: read, write: write})
}

// Read32 performs a host-physical 32-bit read as seen by cpu.
func (b *Board) Read32(cpu int, addr uint64) (uint32, error) {
	for _, m := range b.mmio {
		if addr >= m.base && addr < m.base+m.size {
			return m.read(cpu, addr-m.base)
		}
	}
	if b.RAM.InRange(addr, 4) {
		return b.RAM.ReadWord(addr)
	}
	return 0, &BusFault{Addr: addr}
}

// Write32 performs a host-physical 32-bit write as seen by cpu.
func (b *Board) Write32(cpu int, addr uint64, v uint32) error {
	for _, m := range b.mmio {
		if addr >= m.base && addr < m.base+m.size {
			return m.write(cpu, addr-m.base, v)
		}
	}
	if b.RAM.InRange(addr, 4) {
		return b.RAM.WriteWord(addr, v)
	}
	return &BusFault{Addr: addr, Write: true}
}

// StartTimer programs cpu's generic timer to raise the virtual-timer PPI
// every period. Any previous programming is replaced.
func (b *Board) StartTimer(cpu int, period sim.Time) {
	b.StopTimer(cpu)
	if cpu < 0 || cpu >= NumCPUs {
		return
	}
	b.timers[cpu].ev = b.Engine.Every(period, EvTimer, int32(cpu), 0)
}

// StopTimer cancels cpu's timer programming.
func (b *Board) StopTimer(cpu int) {
	if cpu < 0 || cpu >= NumCPUs {
		return
	}
	b.timers[cpu].ev.Cancel()
	b.timers[cpu].ev = sim.Event{}
}

// Handle installs h as the machine's handler for events of kind k.
func (b *Board) Handle(k sim.HandlerKind, h sim.Handler) { b.Engine.SetHandler(k, h) }

// Trace returns the engine's trace, the board-wide event record.
func (b *Board) Trace() *sim.Trace { return b.Engine.Trace() }

// Now returns the current virtual time.
func (b *Board) Now() sim.Time { return b.Engine.Now() }

package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"

	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/gic"
	"github.com/dessertlab/certify/internal/uart"
)

// fold is an incremental FNV-1a accumulator (stdlib hash/fnv) over the
// machine's observable state. Everything is serialised through
// fixed-width values in a fixed visit order, so two machines digest
// equal iff every visited observable matches.
type fold struct{ h hash.Hash64 }

func newFold() *fold { return &fold{h: fnv.New64a()} }

func (f *fold) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.h.Write(b[:])
}

func (f *fold) i64(v int64) { f.u64(uint64(v)) }

func (f *fold) b(v bool) {
	if v {
		f.u64(1)
	} else {
		f.u64(0)
	}
}

func (f *fold) str(s string) {
	f.u64(uint64(len(s)))
	io.WriteString(f.h, s)
}

// StateDigest fingerprints every layer of the machine's observable
// state: engine clock and queued events (kind, target, argument, time,
// period and cancel flag, in delivery order), the rendered trace, both UART
// captures, the GIC's full register file and per-CPU pending/active
// bitmaps, the LED level and toggle count, RAM content, each CPU's
// architectural state, the hypervisor's cells/per-CPU blocks/console/
// ivshmem links, root Linux's lifecycle state and the FreeRTOS kernel's scheduler state,
// task control blocks included (working registers and the task bodies'
// own locals).
//
// The leak-detection property test relies on this being discriminating:
// a freshly built machine and a machine restored to its post-boot image
// with the same options must digest identically, for any amount of
// damage the previous run inflicted. When extending a layer with new
// mutable state, capture it in the layer's snapshot and cover it here —
// the fuzz test is the enforcement.
func (m *Machine) StateDigest() uint64 {
	f := newFold()

	// Engine and trace.
	eng := m.Board.Engine
	f.i64(int64(eng.Now()))
	queue := eng.Queue(nil)
	f.i64(int64(len(queue)))
	for _, ev := range queue {
		f.u64(uint64(ev.Kind))
		f.i64(int64(ev.Target))
		f.u64(ev.Arg)
		f.i64(int64(ev.When))
		f.i64(int64(ev.Period))
		f.b(ev.Canceled)
	}
	halted, haltMsg := eng.Halted()
	f.b(halted)
	f.str(haltMsg)
	f.u64(m.Board.Trace().Hash())
	f.i64(int64(m.Board.Trace().Len()))

	// UART captures (lines carry timestamps via Transcript).
	for _, u := range []*uart.UART{m.Board.UART0, m.Board.UART7} {
		f.i64(int64(u.LineCount()))
		f.str(u.Transcript())
	}

	// GIC: distributor register file plus per-CPU banked state.
	d := m.Board.GIC
	f.b(d.DistributorEnabled())
	for irq := 0; irq < gic.MaxIRQ; irq++ {
		f.b(d.IRQEnabled(irq))
		f.u64(uint64(d.Priority(irq)))
		f.u64(uint64(d.Targets(irq)))
	}
	for cpu := 0; cpu < board.NumCPUs; cpu++ {
		f.b(d.CPUInterfaceEnabled(cpu))
		f.u64(uint64(d.PriorityMask(cpu)))
		for irq := 0; irq < gic.MaxIRQ; irq++ {
			f.b(d.Pending(cpu, irq))
			f.b(d.Active(cpu, irq))
		}
		for id := 0; id < gic.NumSGI; id++ {
			f.i64(int64(d.SGISource(cpu, id)))
		}
	}

	// GPIO and RAM.
	f.i64(int64(m.Board.GPIO.ToggleCount()))
	f.b(m.Board.GPIO.Get())
	f.u64(m.Board.RAM.Digest())

	// CPUs: the complete architectural state — current-mode GPRs, every
	// banked register copy, FIQ banks, HYP/control registers and
	// power/park status (armv7.CPU.VisitState enumerates all of it, so a
	// reset that forgets a banked register is visible here).
	for _, c := range m.Board.CPUs {
		c.VisitState(func(w uint32) { f.u64(uint64(w)) })
	}

	// Hypervisor: lifecycle, cells, per-CPU blocks, console, ivshmem.
	hv := m.HV
	f.b(hv.Enabled())
	panicked, panicMsg := hv.Panicked()
	f.b(panicked)
	f.str(panicMsg)
	f.b(hv.FirmwareTainted())
	f.u64(hv.HypTraps())
	f.u64(uint64(hv.NextCellID()))
	for _, cpu := range hv.OfflinedCPUs() {
		f.i64(int64(cpu))
	}
	cells := hv.Cells()
	f.i64(int64(len(cells)))
	for _, c := range cells {
		f.u64(uint64(c.ID))
		f.str(c.Name())
		f.u64(uint64(c.State))
		f.b(c.Loadable)
		for _, cpu := range c.CPUList() {
			f.i64(int64(cpu))
		}
		for _, r := range c.Stage2.Regions() {
			f.u64(r.Phys)
			f.u64(r.Virt)
			f.u64(r.Size)
			f.u64(uint64(r.Flags))
		}
		if c.Guest != nil {
			f.str(c.Guest.Name())
		} else {
			f.str("")
		}
	}
	for cpu := 0; cpu < board.NumCPUs; cpu++ {
		p := hv.PerCPU(cpu)
		f.b(p.Parked)
		f.str(p.ParkReason)
		f.b(p.OnlineInCell)
		f.b(p.IntegrityOK())
		for _, n := range p.Stats {
			f.u64(n)
		}
	}
	f.i64(int64(len(hv.ConsoleLines)))
	for _, line := range hv.ConsoleLines {
		f.str(line)
	}
	links := hv.IvshmemLinks()
	f.i64(int64(len(links)))
	for _, l := range links {
		a, b := l.Rings()
		f.u64(a)
		f.u64(b)
		f.u64(uint64(l.PeerA))
		f.u64(uint64(l.PeerB))
		f.i64(int64(l.DoorbellA))
		f.i64(int64(l.DoorbellB))
	}

	// Root Linux lifecycle state.
	lp, lw := m.Linux.Panicked()
	f.b(lp)
	f.str(lw)
	f.u64(uint64(m.Linux.CellID))
	f.u64(uint64(m.Linux.LastState))
	f.i64(int64(m.Linux.LastStartAt))

	// FreeRTOS kernel (absent until the cell is loaded).
	f.b(m.RTOS != nil)
	if m.RTOS != nil {
		k := m.RTOS
		f.u64(k.Tick())
		kh, kw := k.Halted()
		f.b(kh)
		f.str(kw)
		f.u64(k.ContextSwitches)
		tasks := k.Tasks()
		f.i64(int64(len(tasks)))
		for _, t := range tasks {
			f.str(t.Name)
			f.i64(int64(t.Priority))
			f.u64(uint64(t.State))
			f.b(t.Asserted)
			for _, w := range t.Work {
				f.u64(uint64(w))
			}
			for _, w := range t.Locals() {
				f.u64(uint64(w))
			}
		}
		for _, q := range k.Queues() {
			f.i64(int64(q.Len()))
			f.u64(q.Receives)
		}
	}

	f.u64(uint64(m.CellID))
	f.str(m.simFault)
	return f.h.Sum64()
}

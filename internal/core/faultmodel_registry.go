package core

import (
	"fmt"
	"sort"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/gic"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

// DefaultFaultModelName names the paper's register bit-flip model — the
// model a plan runs when no fault model is selected. Plans render the
// default as the *absence* of the plan-file "fault" key, so every
// pre-registry plan hash and shard artefact stays valid.
const DefaultFaultModelName = "register"

// MachineFaulter is the full-machine extension of FaultModel: instead of
// planning register flips, the model reaches into the assembled machine —
// RAM, GIC, guests, event queue — when the injection trigger fires.
// ApplyMachine returns a description of the damage for the injection log.
// Implementations must draw every random choice from rng in a fixed
// order, so runs replay bit-identically across shards.
type MachineFaulter interface {
	FaultModel
	ApplyMachine(m *Machine, rng *sim.RNG, point jailhouse.InjectionPoint, cpu int) string
}

// faultModelFactory builds a model instance for a plan; registered
// factories receive the plan so register-class models can honour its
// field set.
type faultModelFactory func(p *TestPlan) FaultModel

// faultModelRegistry maps registry names to factories. Populated at init;
// read-only afterwards, so concurrent campaign workers need no locking.
var faultModelRegistry = map[string]faultModelFactory{}

// RegisterFaultModel adds a named model factory to the registry. Names
// are plan-file values and shard-manifest identities; registering a
// duplicate name panics (a programming error, caught at init).
func RegisterFaultModel(name string, factory faultModelFactory) {
	if name == "" || factory == nil {
		panic("core: RegisterFaultModel needs a name and a factory")
	}
	if _, dup := faultModelRegistry[name]; dup {
		panic(fmt.Sprintf("core: fault model %q registered twice", name))
	}
	faultModelRegistry[name] = factory
}

// FaultModelRegistered reports whether name is a known fault model.
func FaultModelRegistered(name string) bool {
	_, ok := faultModelRegistry[name]
	return ok
}

// FaultModelNames returns the registered model names, sorted.
func FaultModelNames() []string {
	out := make([]string, 0, len(faultModelRegistry))
	for name := range faultModelRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// newFaultModelFor builds the plan's named model, or nil when the name is
// unknown (Validate rejects that before any run starts).
func newFaultModelFor(p *TestPlan) FaultModel {
	if f, ok := faultModelRegistry[p.FaultName]; ok {
		return f(p)
	}
	return nil
}

func init() {
	RegisterFaultModel(DefaultFaultModelName, func(p *TestPlan) FaultModel {
		return p.Intensity.Model(p.Fields)
	})
	RegisterFaultModel("burst", func(p *TestPlan) FaultModel {
		return &RegisterBurst{Fields: p.Fields}
	})
	RegisterFaultModel("ram", func(p *TestPlan) FaultModel {
		return &RAMFault{}
	})
	RegisterFaultModel("gic", func(p *TestPlan) FaultModel {
		return &GICFault{}
	})
	RegisterFaultModel("irq-storm", func(p *TestPlan) FaultModel {
		return &IRQStorm{}
	})
	// The earlier extended register models join the registry so plan
	// files (and the soak sweep) can select them by name too.
	RegisterFaultModel("stuck-at-0", func(p *TestPlan) FaultModel {
		return &StuckAtModel{Fields: p.Fields}
	})
	RegisterFaultModel("stuck-at-1", func(p *TestPlan) FaultModel {
		return &StuckAtModel{One: true, Fields: p.Fields}
	})
	RegisterFaultModel("intermittent", func(p *TestPlan) FaultModel {
		return &IntermittentModel{Fields: p.Fields}
	})
	RegisterFaultModel("double-bit", func(p *TestPlan) FaultModel {
		return &DoubleBitAdjacentModel{Fields: p.Fields}
	})
}

// ---- burst: multi-bit register bursts ----

// RegisterBurst flips a contiguous run of 2–8 bits in one register — the
// multi-bit-upset class a particle strike produces in adjacent cells of
// one storage row. The burst wraps around bit 31.
type RegisterBurst struct {
	// Fields to draw from; nil means GPRFields.
	Fields []armv7.Field
}

var _ FaultModel = (*RegisterBurst)(nil)

// Name implements FaultModel.
func (b *RegisterBurst) Name() string { return "register-burst" }

// Plan implements FaultModel.
func (b *RegisterBurst) Plan(rng *sim.RNG) []Flip {
	fields := b.Fields
	if len(fields) == 0 {
		fields = GPRFields
	}
	f := fields[rng.Intn(len(fields))]
	width := 2 + rng.Intn(7) // 2..8 adjacent bits
	start := uint(rng.Intn(32))
	out := make([]Flip, 0, width)
	for i := 0; i < width; i++ {
		out = append(out, Flip{Field: f, Bit: (start + uint(i)) % 32})
	}
	return out
}

// ---- ram: RAM bit-flips through memmap.RAM ----

// Strata of the ram model, expressed as offsets into the physical map.
// The windows match the layout in jailhouse/configs.go.
const (
	ramKernelTextOff    = 0x0000_8000 // root kernel text at DRAM base + 32 KiB
	ramKernelTextWindow = 8 << 20     // 8 MiB of kernel text/rodata
	ramStratumWindow    = 0x00F0_0000 // probed window inside a 16 MiB region
	pTextFetchFatal     = 0.25        // chance the damaged line is fetched
)

// RAMFault flips one bit of physical RAM in a randomly chosen stratum —
// root-kernel text, the FreeRTOS cell's heap (its task control blocks),
// or the hypervisor's private firmware region. The bit really changes in
// memmap.RAM (visible in the machine state digest); the architectural
// consequence is modelled through the owning layer's own failure path.
type RAMFault struct{}

var (
	_ FaultModel     = (*RAMFault)(nil)
	_ MachineFaulter = (*RAMFault)(nil)
)

// Name implements FaultModel.
func (r *RAMFault) Name() string { return "ram-bitflip" }

// Plan implements FaultModel. Machine faults plan no register flips.
func (r *RAMFault) Plan(rng *sim.RNG) []Flip { return nil }

// flipWord XORs one bit of a RAM word, tolerating out-of-range addresses
// (graceful degradation: a fault that misses RAM is a no-op strike).
func flipWord(m *Machine, addr uint64, bit uint) {
	w, err := m.Board.RAM.ReadWord(addr)
	if err != nil {
		return
	}
	_ = m.Board.RAM.WriteWord(addr, w^(1<<(bit%32)))
}

// ApplyMachine implements MachineFaulter.
func (r *RAMFault) ApplyMachine(m *Machine, rng *sim.RNG, point jailhouse.InjectionPoint, cpu int) string {
	bit := uint(rng.Intn(32))
	switch rng.Intn(3) {
	case 0: // root-kernel text
		addr := board.DRAMBase + ramKernelTextOff + uint64(rng.Intn(ramKernelTextWindow))&^3
		flipWord(m, addr, bit)
		if rng.Bool(pTextFetchFatal) {
			m.Linux.KernelTextFault(addr)
			return fmt.Sprintf("ram flip in kernel text @%#x (fetched)", addr)
		}
		return fmt.Sprintf("ram flip in kernel text @%#x (latent)", addr)
	case 1: // guest heap: the cell's task control blocks
		addr := jailhouse.FreeRTOSMemBase + uint64(rng.Intn(ramStratumWindow))&^3
		flipWord(m, addr, bit)
		if m.RTOS != nil {
			return "ram flip in guest heap: " + m.RTOS.CorruptRandomTCB(rng)
		}
		return fmt.Sprintf("ram flip in guest heap @%#x (no cell loaded)", addr)
	default: // hypervisor firmware region
		addr := jailhouse.HypMemBase + uint64(rng.Intn(ramStratumWindow))&^3
		flipWord(m, addr, bit)
		m.HV.TaintFirmware(fmt.Sprintf("ram flip @%#x", addr))
		return fmt.Sprintf("ram flip in hypervisor firmware @%#x", addr)
	}
}

// ---- gic: distributor/peripheral state corruption ----

// GICFault corrupts interrupt-controller state: disabling lines, wrecking
// priorities or target masks, masking a CPU interface, raising spurious
// interrupts, or switching the whole distributor off. These are the
// peripheral-path faults the mixed-criticality surveys flag as
// under-assessed; a partitioning hypervisor's isolation story depends on
// surviving them.
type GICFault struct{}

var (
	_ FaultModel     = (*GICFault)(nil)
	_ MachineFaulter = (*GICFault)(nil)
)

// Name implements FaultModel.
func (g *GICFault) Name() string { return "gic-corruption" }

// Plan implements FaultModel.
func (g *GICFault) Plan(rng *sim.RNG) []Flip { return nil }

// gicVictimIRQ picks a consequential line: the virtual timer, one of the
// consoles, or a random SPI.
func gicVictimIRQ(rng *sim.RNG) int {
	switch rng.Intn(4) {
	case 0:
		return gic.IRQVirtualTimer
	case 1:
		return board.IRQUart0
	case 2:
		return board.IRQUart7
	default:
		return gic.NumSGI + gic.NumPPI + rng.Intn(gic.NumSPI)
	}
}

// ApplyMachine implements MachineFaulter.
func (g *GICFault) ApplyMachine(m *Machine, rng *sim.RNG, point jailhouse.InjectionPoint, cpu int) string {
	d := m.Board.GIC
	switch rng.Intn(6) {
	case 0:
		irq := gicVictimIRQ(rng)
		d.DisableIRQ(irq)
		return fmt.Sprintf("gic: enable bit of IRQ %d cleared", irq)
	case 1:
		irq := gicVictimIRQ(rng)
		d.SetPriority(irq, 0xFF)
		return fmt.Sprintf("gic: priority of IRQ %d forced to 0xFF (masked)", irq)
	case 2:
		irq := gic.NumSGI + gic.NumPPI + rng.Intn(gic.NumSPI)
		mask := uint8(rng.Intn(256))
		d.SetTargets(irq, mask)
		return fmt.Sprintf("gic: target mask of SPI %d scrambled to %#x", irq, mask)
	case 3:
		victim := rng.Intn(board.NumCPUs)
		d.SetPriorityMask(victim, 0x00)
		return fmt.Sprintf("gic: CPU %d priority mask dropped to 0 (all IRQs masked)", victim)
	case 4:
		irq := gic.NumSGI + gic.NumPPI + rng.Intn(gic.NumSPI)
		// Raised after the current handler unwinds, not from inside it —
		// the hardware analogue of a pending bit set by a glitch.
		m.Board.Engine.After(0, board.EvRaiseSPI, int32(irq), 0)
		return fmt.Sprintf("gic: spurious SPI %d latched pending", irq)
	default:
		d.EnableDistributor(false)
		return "gic: distributor enable bit cleared"
	}
}

// ---- irq-storm: interrupt storms through the event queue ----

// Storm shape parameters.
const (
	stormMinEvents = 128
	stormMaxExtra  = 129 // events drawn as stormMinEvents + Intn(stormMaxExtra)
	stormSpan      = 5 * sim.Millisecond
)

// IRQStorm floods the machine with interrupts: a burst of spurious SPIs
// and management-range SGIs scheduled over a few milliseconds of virtual
// time through the engine's own event path. A healthy hypervisor sheds
// the storm (dropped SGIs, "IRQ error" logs); an unhealthy one livelocks,
// which the engine's bounded-progress watchdog converts into a
// machine-wedge outcome.
type IRQStorm struct{}

var (
	_ FaultModel     = (*IRQStorm)(nil)
	_ MachineFaulter = (*IRQStorm)(nil)
)

// Name implements FaultModel.
func (s *IRQStorm) Name() string { return "irq-storm" }

// Plan implements FaultModel.
func (s *IRQStorm) Plan(rng *sim.RNG) []Flip { return nil }

// ApplyMachine implements MachineFaulter. All random draws happen here,
// up front; the scheduled events carry them as data.
func (s *IRQStorm) ApplyMachine(m *Machine, rng *sim.RNG, point jailhouse.InjectionPoint, cpu int) string {
	eng := m.Board.Engine
	n := stormMinEvents + rng.Intn(stormMaxExtra)
	for i := 0; i < n; i++ {
		at := sim.Time(rng.Intn(int(stormSpan) + 1))
		if rng.Bool(0.75) {
			irq := gic.NumSGI + gic.NumPPI + rng.Intn(gic.NumSPI)
			eng.After(at, board.EvRaiseSPI, int32(irq), 0)
		} else {
			// SGIs 2..15: outside the hypervisor's management IDs (0, 1),
			// so the storm exercises the unexpected-SGI shedding path
			// rather than faking cell lifecycle commands.
			id := 2 + rng.Intn(gic.NumSGI-2)
			src := rng.Intn(board.NumCPUs)
			mask := uint8(1 << uint(rng.Intn(board.NumCPUs)))
			eng.After(at, board.EvSendSGI, int32(src), uint64(mask)<<8|uint64(id))
		}
	}
	return fmt.Sprintf("irq storm: %d spurious interrupts over %v", n, stormSpan.Duration())
}

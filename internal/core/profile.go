package core

import (
	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

// SensitivityProfile models the live-register component of an injection.
//
// The paper's injector (a dozen lines inside Jailhouse) flips live
// architecture registers at handler entry. At that moment a register
// holds either a saved-guest value (whose corruption our guest models
// handle mechanistically) or live hypervisor working state — the per-CPU
// pointer in r0, the HYP stack pointer in sp, spilled locals in the
// callee-saved range. A functional model cannot know which compiled-code
// slot was live, so the profile captures it as documented per-register
// probabilities, split by handler depth:
//
//   - arch_handle_trap runs the deepest code (MMIO decode, dispatch
//     tables) → highest liveness;
//   - arch_handle_hvc is a shallow argument-validating leaf → lowest
//     (which is why the paper's E1 sees clean EINVALs, not crashes);
//   - irqchip_handle_irq holds only the IRQ number → minimal.
//
// The damage split mirrors the three architectural failure routes: a wild
// hypervisor pointer (immediate HYP abort → panic_stop), a redirected
// per-CPU derivation (cross-CPU corruption → deferred panic), and a stray
// write into the own block (detected at the next integrity check).
// EXPERIMENTS.md documents the calibration: the defaults land the
// Figure 3 campaign inside the paper's reported bands.
type SensitivityProfile struct {
	// DeepTrap is the per-field liveness on the deep emulation path
	// (MMIO read emulation, prefetch-abort handling): the longest code,
	// the most live registers.
	DeepTrap map[armv7.Field]float64
	// ShallowTrap is the liveness on short trap paths: store emulation,
	// the HVC/SMC dispatch stubs, WFx and CP15 filtering. Arguments are
	// consumed immediately; little hypervisor state is in flight.
	ShallowTrap map[armv7.Field]float64
	// HVC is the liveness inside arch_handle_hvc itself — a leaf that
	// validates guest-supplied arguments: flips there produce EINVAL
	// mechanically, almost never hypervisor damage (the paper's E1).
	HVC map[armv7.Field]float64
	// IRQ is the liveness in irqchip_handle_irq. The handler holds only
	// the IRQ number; the paper excluded this point because corrupting
	// it yields a predictable IRQ error, and the table reflects that.
	IRQ map[armv7.Field]float64
	// Split gives the damage-kind weights (HypAbort, CrossCPU, PerCPU)
	// used when a live hit occurs.
	Split [3]float64
}

// DefaultProfile returns the calibrated sensitivity profile.
func DefaultProfile() *SensitivityProfile {
	deep := map[armv7.Field]float64{
		armv7.Field(armv7.RegR0): 0.90, // per-CPU data pointer
		armv7.Field(armv7.RegSP): 0.90, // HYP stack pointer
		armv7.Field(armv7.RegLR): 0.70, // handler return address
	}
	for i := armv7.RegR4; i <= armv7.RegR11; i++ {
		deep[armv7.Field(i)] = 0.15 // spilled locals, sometimes live
	}
	for _, f := range []int{armv7.RegR1, armv7.RegR2, armv7.RegR3, armv7.RegR12} {
		deep[armv7.Field(f)] = 0.06 // consumed scratch
	}

	shallow := map[armv7.Field]float64{
		armv7.Field(armv7.RegR0): 0.05,
		armv7.Field(armv7.RegSP): 0.05,
		armv7.Field(armv7.RegLR): 0.03,
	}
	hvc := map[armv7.Field]float64{
		armv7.Field(armv7.RegSP): 0.02,
		armv7.Field(armv7.RegLR): 0.01,
	}
	return &SensitivityProfile{
		DeepTrap:    deep,
		ShallowTrap: shallow,
		HVC:         hvc,
		IRQ:         map[armv7.Field]float64{},    // tiny handler: no live state
		Split:       [3]float64{0.45, 0.40, 0.15}, // HypAbort, CrossCPU, PerCPU
	}
}

// Trace arena profile. The simulated stack emits trace records at a
// rate dominated by the periodic machinery (scheduler ticks, UART
// lines, state-watchdog probes, IRQ traffic), measured at ~1.0–1.3k
// records/virtual-second across the paper's plans. Deferred-format
// arguments are rare by comparison: the hot records carry final text,
// and over 20 seeds no E3-fig3 minute used more than 1,523 arguments
// and no E1-hvc minute more than 2,709 (~45/virtual-second). The budget
// provisions both measured rates with headroom so one up-front arena
// allocation covers a whole run; TestTraceBudgetCoversBuiltinPlans
// holds every builtin plan to it.
const (
	// traceRecordsPerSecond is the record provisioning rate per virtual
	// second.
	traceRecordsPerSecond = 1400
	// traceArgsPerSecond is the argument provisioning rate per virtual
	// second.
	traceArgsPerSecond = 64
	// traceBudgetSlack covers boot records and short-horizon variance.
	traceBudgetSlack = 4096
	// traceArgSlack covers boot arguments and bursts of formatted
	// records around injections.
	traceArgSlack = 1024
)

// TraceBudget estimates the trace arena a run of the plan needs:
// record and argument capacities derived from the plan's effective
// duration. The estimate is a capacity hint, never a cap — a run that
// outgrows it just falls back to append growth.
func TraceBudget(plan *TestPlan) (records, args int) {
	secs := int(plan.EffectiveDuration()/sim.Second) + 1
	records = secs*traceRecordsPerSecond + traceBudgetSlack
	args = secs*traceArgsPerSecond + traceArgSlack
	return records, args
}

// table selects the liveness table for an injection at the given point,
// using the pre-injection syndrome to judge handler depth.
func (p *SensitivityProfile) table(point jailhouse.InjectionPoint, hsrAtEntry uint32) map[armv7.Field]float64 {
	switch point {
	case jailhouse.PointHVC:
		return p.HVC
	case jailhouse.PointIRQChip:
		return p.IRQ
	default:
		ec := armv7.HSRClass(hsrAtEntry)
		switch ec {
		case armv7.ECDABTLow:
			da := armv7.DecodeDataAbort(armv7.HSRISS(hsrAtEntry))
			if da.Write {
				return p.ShallowTrap // store emulation: short path
			}
			return p.DeepTrap // load emulation: value injection path
		case armv7.ECIABTLow, armv7.ECDABTCur, armv7.ECUnknown:
			return p.DeepTrap
		default:
			// HVC/SMC dispatch stubs, WFx, CP15 filtering.
			return p.ShallowTrap
		}
	}
}

// Sample decides the live-state damage for one injection that flipped the
// given fields at the given point. hsrAtEntry is the syndrome before the
// fault model ran — what the handler was actually doing.
func (p *SensitivityProfile) Sample(rng *sim.RNG, point jailhouse.InjectionPoint, hsrAtEntry uint32, fields []armv7.Field) jailhouse.Damage {
	if p == nil {
		return jailhouse.DamageNone
	}
	table := p.table(point, hsrAtEntry)
	for _, f := range fields {
		if prob, ok := table[f]; ok && rng.Bool(prob) {
			switch rng.Pick(p.Split[:]) {
			case 0:
				return jailhouse.DamageHypAbort
			case 1:
				return jailhouse.DamageCrossCPU
			default:
				return jailhouse.DamagePerCPU
			}
		}
	}
	return jailhouse.DamageNone
}

package core

import (
	"fmt"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

// InjectionRecord documents one performed injection — the framework's
// equivalent of the paper's log entries.
type InjectionRecord struct {
	At     sim.Time
	Point  jailhouse.InjectionPoint
	CPU    int
	Cell   string
	Fields []armv7.Field
	Damage jailhouse.Damage
	CallNo uint64 // which matching call triggered it

	// Note describes a machine-level fault (MachineFaulter models); empty
	// for the register-flip models.
	Note string
}

// String renders the record for logs.
func (r InjectionRecord) String() string {
	if r.Note != "" {
		return fmt.Sprintf("%s inject@%s cpu%d cell=%s call#%d %s",
			r.At, r.Point, r.CPU, r.Cell, r.CallNo, r.Note)
	}
	names := make([]string, len(r.Fields))
	for i, f := range r.Fields {
		names[i] = armv7.FieldName(f)
	}
	return fmt.Sprintf("%s inject@%s cpu%d cell=%s call#%d fields=%v damage=%d",
		r.At, r.Point, r.CPU, r.Cell, r.CallNo, names, r.Damage)
}

// Injector implements the paper's instrumentation: it counts calls to the
// targeted handlers that match the plan's filter and corrupts the trap
// context on every Nth one. Wire it with Injector.Hook as the
// hypervisor's EntryHook.
type Injector struct {
	plan    *TestPlan
	model   FaultModel
	profile *SensitivityProfile
	rng     *sim.RNG
	now     func() sim.Time

	armed     bool
	armFrom   sim.Time // injections suppressed before this instant
	disarmAt  sim.Time // 0 = no deadline
	phase     uint64   // random trigger phase within the rate window
	calls     callCounts
	records   []InjectionRecord
	callTotal uint64

	// machine is the bound experiment target for machine-level fault
	// models (MachineFaulter); nil for pure register models.
	machine *Machine

	// tape, when taping is set, logs the virtual time of every matching
	// call: the call log of the golden timeline a golden pass records.
	tape   []sim.Time
	taping bool
}

// NewInjector builds an injector for the plan. rng must be the target
// machine's engine RNG (or a stream derived from the run seed) so runs
// replay bit-identically; now supplies virtual time for records.
func NewInjector(plan *TestPlan, profile *SensitivityProfile, rng *sim.RNG, now func() sim.Time) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		plan:    plan,
		model:   plan.Model(),
		profile: profile,
		rng:     rng,
		now:     now,
		armed:   true,
		// The rig's arming instant is asynchronous to the workload, so
		// the first trigger lands uniformly inside the rate window.
		phase: uint64(rng.Intn(plan.EffectiveRate())),
	}, nil
}

// callCounts holds the matching-call count of each injection point,
// indexed by point: the hook increments an array slot, and the map form
// is built only where the counts leave as evidence (Calls).
type callCounts [jailhouse.PointIRQChip + 1]uint64

// ArmWindow enables injection only inside [from, until] of virtual time
// (0 = no bound), implementing the paper's test-duration control;
// matching calls are still counted outside the window (profiling).
func (in *Injector) ArmWindow(from, until sim.Time) {
	in.armed = true
	in.armFrom = from
	in.disarmAt = until
}

// BindMachine attaches the experiment target so machine-level fault
// models (MachineFaulter) can reach RAM, the GIC, the guests and the
// event queue. Register models ignore the binding.
func (in *Injector) BindMachine(m *Machine) { in.machine = m }

// Records returns the performed injections.
func (in *Injector) Records() []InjectionRecord {
	out := make([]InjectionRecord, len(in.records))
	copy(out, in.records)
	return out
}

// FirstInjectionAt returns the virtual time of the first performed
// injection, or -1 when none happened.
func (in *Injector) FirstInjectionAt() sim.Time {
	if len(in.records) == 0 {
		return -1
	}
	return in.records[0].At
}

// Calls returns how many filter-matching calls each point has seen —
// the golden-run profiling counters that led the paper to its three
// candidate functions.
func (in *Injector) Calls() map[jailhouse.InjectionPoint]uint64 {
	out := make(map[jailhouse.InjectionPoint]uint64)
	for p, n := range in.calls {
		if n != 0 {
			out[jailhouse.InjectionPoint(p)] = n
		}
	}
	return out
}

// TotalCalls returns all matching calls across points.
func (in *Injector) TotalCalls() uint64 { return in.callTotal }

// triggers is the injection predicate: whether the call-th matching
// call, made at virtual time at, fires an injection — the arm latch, the
// arm window and the rate with its phase. Hook and the golden-timeline
// eligibility check (firstTrigger) both decide through it, so a run is
// never started from a checkpoint past a call the hook would fire on.
func (in *Injector) triggers(call uint64, at sim.Time) bool {
	if !in.armed {
		return false
	}
	if in.armFrom > 0 && at < in.armFrom {
		return false
	}
	if in.disarmAt > 0 && at > in.disarmAt {
		return false
	}
	return (call+in.phase)%uint64(in.plan.EffectiveRate()) == 0
}

// firstTrigger returns the position n (1-based) of the first call in a
// stretch of a golden call log on which the injector fires, or 0 when
// it fires on none of them. calls[n-1] is the time of matching call
// base+n: the whole log starts at base 0; a stretch after a checkpoint
// is numbered on from a run's own call count.
func (in *Injector) firstTrigger(calls []sim.Time, base uint64) uint64 {
	for i, at := range calls {
		if in.triggers(base+uint64(i+1), at) {
			return uint64(i + 1)
		}
	}
	return 0
}

// advance adds the golden matching calls between two checkpoints to the
// counters, as if the injector had watched the stretch a jump skips.
func (in *Injector) advance(from, to *checkpoint) {
	for p := range in.calls {
		in.calls[p] += to.calls[p] - from.calls[p]
	}
	in.callTotal += to.total - from.total
}

// preload sets the matching-call counters to a checkpoint's golden
// counts, as if the injector had watched the prefix it skips.
func (in *Injector) preload(c *checkpoint) {
	in.calls, in.callTotal = c.calls, c.total
}

// Hook is the jailhouse.EntryHook adapter.
func (in *Injector) Hook(point jailhouse.InjectionPoint, cpu int, cell string, ctx *armv7.TrapContext) jailhouse.InjectionResult {
	if uint(point) >= uint(len(in.calls)) || !in.plan.TargetsPoint(point) {
		return jailhouse.InjectionResult{}
	}
	if in.plan.TargetCPU != AnyCPU && cpu != in.plan.TargetCPU {
		return jailhouse.InjectionResult{}
	}
	if in.plan.TargetCell != "" && cell != in.plan.TargetCell {
		return jailhouse.InjectionResult{}
	}
	in.calls[point]++
	in.callTotal++
	if in.taping {
		in.tape = append(in.tape, in.now())
	}
	if !in.triggers(in.callTotal, in.now()) {
		return jailhouse.InjectionResult{}
	}

	if mf, ok := in.model.(MachineFaulter); ok && in.machine != nil {
		note := mf.ApplyMachine(in.machine, in.rng, point, cpu)
		in.machine.Board.Trace().Addf(in.now(), sim.KindInjection, cpu,
			"%s: machine fault: %s", sim.Str(point.String()), sim.Str(note))
		in.records = append(in.records, InjectionRecord{
			At:     in.now(),
			Point:  point,
			CPU:    cpu,
			Cell:   cell,
			CallNo: in.callTotal,
			Note:   note,
		})
		return jailhouse.InjectionResult{}
	}

	hsrAtEntry := ctx.HSR
	flips := in.model.Plan(in.rng)
	fields := make([]armv7.Field, 0, len(flips))
	for _, fl := range flips {
		ctx.FlipBit(remapLiveField(point, hsrAtEntry, fl.Field), fl.Bit)
		fields = append(fields, fl.Field)
	}
	damage := in.profile.Sample(in.rng, point, hsrAtEntry, fields)
	in.records = append(in.records, InjectionRecord{
		At:     in.now(),
		Point:  point,
		CPU:    cpu,
		Cell:   cell,
		Fields: fields,
		Damage: damage,
		CallNo: in.callTotal,
	})
	return jailhouse.InjectionResult{Fields: fields, Damage: damage}
}

// remapLiveField maps a flipped *live* register to the datum it holds at
// the instrumented entry. In the data-abort path of arch_handle_trap, r1
// holds the syndrome and r2 the fault address (the handler's working
// copies of HSR/HDFAR) — flipping them corrupts the handler's *view* of
// the trap, which is how the paper's "error code 0x24 → cpu_park()"
// outcome arises. Elsewhere the registers carry the guest's argument
// values and map to themselves.
func remapLiveField(point jailhouse.InjectionPoint, hsrAtEntry uint32, f armv7.Field) armv7.Field {
	if point != jailhouse.PointTrap {
		return f
	}
	if armv7.HSRClass(hsrAtEntry) != armv7.ECDABTLow {
		return f
	}
	switch int(f) {
	case armv7.RegR1:
		return armv7.FieldHSR
	case armv7.RegR2:
		return armv7.FieldHDFAR
	default:
		return f
	}
}

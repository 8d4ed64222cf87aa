package core

import (
	"fmt"
	"strings"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

// AnyCPU disables CPU filtering in a plan.
const AnyCPU = -1

// TestPlan is one row of the paper's test plan: which handler(s) to
// inject into, at which intensity and rate, filtered to which CPU, for
// how long, under which workload.
type TestPlan struct {
	// Name labels the plan in reports ("E3-fig3", ...).
	Name string

	// Points are the instrumented functions to target.
	Points []jailhouse.InjectionPoint

	// Intensity selects the paper's fault model level.
	Intensity Intensity

	// Rate is the occurrence: one injection per Rate matching calls.
	// Zero means the intensity's paper default (100 medium / 50 high).
	Rate int

	// TargetCPU filters injection to one core (AnyCPU = no filter).
	TargetCPU int

	// TargetCell filters by the name of the cell running on the
	// trapping CPU ("" = no filter).
	TargetCell string

	// Fields restricts the register set (nil = paper's 16 GPRs).
	Fields []armv7.Field

	// Duration is the test length; the paper uses one minute.
	Duration sim.Time

	// Workload selects the root-cell activity.
	Workload WorkloadKind

	// FaultName selects a registered fault model by name ("" = the
	// paper's intensity-derived register bit-flip model). Named models
	// are recorded in the plan file and therefore in TestPlan.Hash, so
	// shard artefacts from different models can never be merged.
	FaultName string

	// custom overrides the intensity-derived fault model when set (see
	// NewCustomPlan); nil uses the paper's models.
	custom FaultModel
}

// WorkloadKind selects what the root cell does during the run.
type WorkloadKind int

// Workload kinds.
const (
	// WorkloadSteady: cell created once and left running (Figure 3).
	WorkloadSteady WorkloadKind = iota
	// WorkloadManagement: the recreate loop keeping the management
	// hypercall path hot (E1).
	WorkloadManagement
	// WorkloadDelayedCreate: the cell is created, loaded and started a
	// couple of seconds into the run, with the injector armed from the
	// start — the bring-up window is the experiment's subject (E2).
	WorkloadDelayedCreate
)

// String implements fmt.Stringer.
func (w WorkloadKind) String() string {
	switch w {
	case WorkloadManagement:
		return "management-cycle"
	case WorkloadDelayedCreate:
		return "delayed-create"
	default:
		return "steady"
	}
}

// EffectiveRate returns the plan's occurrence rate with the paper default
// applied.
func (p *TestPlan) EffectiveRate() int {
	if p.Rate > 0 {
		return p.Rate
	}
	return p.Intensity.DefaultRate()
}

// EffectiveDuration returns the plan duration, defaulting to the paper's
// one minute.
func (p *TestPlan) EffectiveDuration() sim.Time {
	if p.Duration > 0 {
		return p.Duration
	}
	return sim.Minute
}

// Model builds the plan's fault model: the paper's intensity-derived
// bit-flip models, unless a custom model was attached via NewCustomPlan
// or a registered model was selected by name (FaultName).
func (p *TestPlan) Model() FaultModel {
	if p.custom != nil {
		return p.custom
	}
	if p.FaultName != "" && p.FaultName != DefaultFaultModelName {
		if m := newFaultModelFor(p); m != nil {
			return m
		}
	}
	return p.Intensity.Model(p.Fields)
}

// EffectiveFaultName returns the registry name of the model the plan will
// run — the identity shard manifests record. Custom in-process models
// (NewCustomPlan) report the default name, matching their plan-file
// rendering.
func (p *TestPlan) EffectiveFaultName() string {
	if p.custom != nil || p.FaultName == "" {
		return DefaultFaultModelName
	}
	return p.FaultName
}

// TargetsPoint reports whether the plan instruments the given function.
func (p *TestPlan) TargetsPoint(pt jailhouse.InjectionPoint) bool {
	for _, x := range p.Points {
		if x == pt {
			return true
		}
	}
	return false
}

// Validate checks plan consistency.
func (p *TestPlan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("core: plan needs a name")
	}
	if len(p.Points) == 0 {
		return fmt.Errorf("core: plan %q targets no injection point", p.Name)
	}
	if p.Intensity != IntensityMedium && p.Intensity != IntensityHigh {
		return fmt.Errorf("core: plan %q has invalid intensity", p.Name)
	}
	if p.Rate < 0 {
		return fmt.Errorf("core: plan %q has negative rate", p.Name)
	}
	if p.TargetCPU < AnyCPU {
		return fmt.Errorf("core: plan %q has invalid target cpu", p.Name)
	}
	if p.FaultName != "" && !FaultModelRegistered(p.FaultName) {
		return fmt.Errorf("core: plan %q selects unknown fault model %q (known: %s)",
			p.Name, p.FaultName, strings.Join(FaultModelNames(), ", "))
	}
	return nil
}

// String renders the plan like the paper's test-plan table rows.
func (p *TestPlan) String() string {
	pts := make([]string, len(p.Points))
	for i, pt := range p.Points {
		pts[i] = pt.String()
	}
	cpu := "any-cpu"
	if p.TargetCPU != AnyCPU {
		cpu = fmt.Sprintf("cpu%d", p.TargetCPU)
	}
	cell := p.TargetCell
	if cell == "" {
		cell = "any-cell"
	}
	return fmt.Sprintf("%s: %s intensity, 1/%d calls, %s on [%s], filter %s/%s, %v",
		p.Name, p.Intensity, p.EffectiveRate(), p.Model().Name(),
		strings.Join(pts, ","), cpu, cell, p.EffectiveDuration().Duration())
}

// ---- The paper's plans ----

// PlanE1HVC is experiment E1 on arch_handle_hvc: high intensity in the
// root-cell context with the management workload.
func PlanE1HVC() *TestPlan {
	return &TestPlan{
		Name:       "E1-hvc",
		Points:     []jailhouse.InjectionPoint{jailhouse.PointHVC},
		Intensity:  IntensityHigh,
		TargetCPU:  0,
		TargetCell: "banana-pi",
		Workload:   WorkloadManagement,
	}
}

// PlanE1Trap is experiment E1 on arch_handle_trap in root context.
func PlanE1Trap() *TestPlan {
	return &TestPlan{
		Name:       "E1-trap",
		Points:     []jailhouse.InjectionPoint{jailhouse.PointTrap},
		Intensity:  IntensityHigh,
		TargetCPU:  0,
		TargetCell: "banana-pi",
		Workload:   WorkloadManagement,
	}
}

// PlanE2Core1 is experiment E2: the same functions as E1 (arch_handle_hvc
// and arch_handle_trap) at high intensity, but filtered to CPU core 1 —
// the cell's bring-up and boot windows.
func PlanE2Core1() *TestPlan {
	return &TestPlan{
		Name:      "E2-core1",
		Points:    []jailhouse.InjectionPoint{jailhouse.PointHVC, jailhouse.PointTrap},
		Intensity: IntensityHigh,
		TargetCPU: 1,
		Workload:  WorkloadDelayedCreate, // the bring-up window is exposed
	}
}

// PlanE3Fig3 is the Figure 3 experiment: medium intensity on the
// non-root cell's arch_handle_trap stream.
func PlanE3Fig3() *TestPlan {
	return &TestPlan{
		Name:       "E3-fig3",
		Points:     []jailhouse.InjectionPoint{jailhouse.PointTrap},
		Intensity:  IntensityMedium,
		TargetCPU:  1,
		TargetCell: "freertos-cell",
		Workload:   WorkloadSteady,
	}
}

// PlanA3IRQ is ablation A3: the irqchip point the paper excluded.
func PlanA3IRQ() *TestPlan {
	return &TestPlan{
		Name:      "A3-irqchip",
		Points:    []jailhouse.InjectionPoint{jailhouse.PointIRQChip},
		Intensity: IntensityMedium,
		TargetCPU: 1,
		Workload:  WorkloadSteady,
	}
}

// BuiltinPlanNames lists the named plans in presentation order — the
// order `certify plans` prints and the serve API advertises.
func BuiltinPlanNames() []string {
	return []string{"E1-hvc", "E1-trap", "E2-core1", "E3-fig3", "A3-irqchip"}
}

// PlanByName returns a fresh instance of the built-in plan with that
// name. Both the CLI and the campaign server resolve request plan names
// through this single registry, so "E3-fig3" means the same campaign
// everywhere a spec can enter the system.
func PlanByName(name string) (*TestPlan, error) {
	switch name {
	case "E1-hvc":
		return PlanE1HVC(), nil
	case "E1-trap":
		return PlanE1Trap(), nil
	case "E2-core1":
		return PlanE2Core1(), nil
	case "E3-fig3":
		return PlanE3Fig3(), nil
	case "A3-irqchip":
		return PlanA3IRQ(), nil
	}
	return nil, fmt.Errorf("core: unknown plan %q (known: %s)", name, strings.Join(BuiltinPlanNames(), ", "))
}

package core

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

func TestIntensityParameters(t *testing.T) {
	if IntensityMedium.DefaultRate() != 100 || IntensityHigh.DefaultRate() != 50 {
		t.Fatal("paper occurrence rates wrong")
	}
	if IntensityMedium.String() != "medium" || IntensityHigh.String() != "high" {
		t.Fatal("intensity names")
	}
	if _, ok := IntensityMedium.Model(nil).(*SingleBitFlip); !ok {
		t.Fatal("medium must be single bit-flip")
	}
	if _, ok := IntensityHigh.Model(nil).(*MultiRegisterBitFlip); !ok {
		t.Fatal("high must be multi-register flip")
	}
}

func TestSingleBitFlipPlansOneFlip(t *testing.T) {
	rng := sim.NewRNG(1)
	m := &SingleBitFlip{}
	for i := 0; i < 200; i++ {
		flips := m.Plan(rng)
		if len(flips) != 1 {
			t.Fatalf("flips = %d, want 1", len(flips))
		}
		if int(flips[0].Field) < 0 || int(flips[0].Field) >= armv7.NumRegs {
			t.Fatalf("field %v outside the paper's register set", flips[0].Field)
		}
		if flips[0].Bit >= 32 {
			t.Fatalf("bit %d out of range", flips[0].Bit)
		}
	}
}

func TestMultiRegisterFlipDistinctFields(t *testing.T) {
	rng := sim.NewRNG(2)
	m := &MultiRegisterBitFlip{K: 3}
	for i := 0; i < 200; i++ {
		flips := m.Plan(rng)
		if len(flips) != 3 {
			t.Fatalf("flips = %d, want 3", len(flips))
		}
		seen := map[armv7.Field]bool{}
		for _, f := range flips {
			if seen[f.Field] {
				t.Fatalf("duplicate field %v in one injection", f.Field)
			}
			seen[f.Field] = true
		}
	}
	// K larger than the field set saturates without panicking.
	m2 := &MultiRegisterBitFlip{K: 99, Fields: ArgFields}
	if got := len(m2.Plan(rng)); got != len(ArgFields) {
		t.Fatalf("saturated K = %d, want %d", got, len(ArgFields))
	}
}

func TestPropertyBitFlipModelIsInvolution(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		var ctx armv7.TrapContext
		orig := ctx
		flips := (&SingleBitFlip{}).Plan(rng)
		for _, fl := range flips {
			ctx.FlipBit(fl.Field, fl.Bit)
		}
		if ctx == orig {
			return false // one flip must change state
		}
		for _, fl := range flips {
			ctx.FlipBit(fl.Field, fl.Bit)
		}
		return ctx == orig
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		plan TestPlan
		ok   bool
	}{
		{"valid", *PlanE3Fig3(), true},
		{"no name", TestPlan{Points: []jailhouse.InjectionPoint{jailhouse.PointTrap}, Intensity: IntensityMedium}, false},
		{"no points", TestPlan{Name: "x", Intensity: IntensityMedium}, false},
		{"bad intensity", TestPlan{Name: "x", Points: []jailhouse.InjectionPoint{jailhouse.PointTrap}}, false},
		{"negative rate", TestPlan{Name: "x", Points: []jailhouse.InjectionPoint{jailhouse.PointTrap}, Intensity: IntensityMedium, Rate: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestCampaignDetectionLatency: at a hot injection rate some run of a
// short E3 campaign detects its failure, and the campaign's mean
// detection latency is a plausible virtual duration within the run.
func TestCampaignDetectionLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	plan := *PlanE3Fig3()
	plan.Duration = 20 * sim.Second
	plan.Rate = 10 // hot: force detections
	c := &Campaign{Plan: &plan, Runs: 20, MasterSeed: 3}
	res, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() != 20 {
		t.Fatalf("campaign ran %d runs, want 20", res.Total())
	}
	mean := res.MeanDetectionLatency()
	if mean < 0 {
		t.Fatal("no run of a rate-10 campaign detected its failure")
	}
	if mean > plan.Duration {
		t.Fatalf("mean detection latency = %v, past the %v run", mean, plan.Duration)
	}
}

func TestPlanDefaults(t *testing.T) {
	p := PlanE3Fig3()
	if p.EffectiveRate() != 100 {
		t.Fatalf("rate = %d", p.EffectiveRate())
	}
	if p.EffectiveDuration() != sim.Minute {
		t.Fatalf("duration = %v", p.EffectiveDuration())
	}
	if !p.TargetsPoint(jailhouse.PointTrap) || p.TargetsPoint(jailhouse.PointHVC) {
		t.Fatal("point targeting")
	}
	s := p.String()
	for _, want := range []string{"arch_handle_trap", "medium", "1/100", "cpu1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("plan string %q missing %q", s, want)
		}
	}
}

func TestInjectorFilterAndRate(t *testing.T) {
	plan := &TestPlan{
		Name:      "t",
		Points:    []jailhouse.InjectionPoint{jailhouse.PointTrap},
		Intensity: IntensityMedium,
		Rate:      10,
		TargetCPU: 1,
	}
	rng := sim.NewRNG(3)
	inj, err := NewInjector(plan, DefaultProfile(), rng, func() sim.Time { return sim.Second })
	if err != nil {
		t.Fatal(err)
	}
	ctx := &armv7.TrapContext{HSR: armv7.BuildHSR(armv7.ECWFx, true, 0)}

	// Wrong point and wrong CPU never count or inject.
	for i := 0; i < 100; i++ {
		if r := inj.Hook(jailhouse.PointHVC, 1, "c", ctx); len(r.Fields) > 0 {
			t.Fatal("injected at untargeted point")
		}
		if r := inj.Hook(jailhouse.PointTrap, 0, "c", ctx); len(r.Fields) > 0 {
			t.Fatal("injected at untargeted cpu")
		}
	}
	if inj.TotalCalls() != 0 {
		t.Fatalf("filtered calls counted: %d", inj.TotalCalls())
	}

	// Matching calls: exactly one injection per 10 calls.
	injections := 0
	for i := 0; i < 100; i++ {
		if r := inj.Hook(jailhouse.PointTrap, 1, "c", ctx); len(r.Fields) > 0 {
			injections++
		}
	}
	if injections != 10 {
		t.Fatalf("injections = %d, want 10 (1 per 10 calls)", injections)
	}
	if inj.TotalCalls() != 100 {
		t.Fatalf("calls = %d", inj.TotalCalls())
	}
	if got := len(inj.Records()); got != 10 {
		t.Fatalf("records = %d", got)
	}
}

func TestInjectorWindow(t *testing.T) {
	plan := &TestPlan{
		Name:      "t",
		Points:    []jailhouse.InjectionPoint{jailhouse.PointTrap},
		Intensity: IntensityMedium,
		Rate:      1, // every matching call
		TargetCPU: AnyCPU,
	}
	now := sim.Time(0)
	rng := sim.NewRNG(4)
	inj, err := NewInjector(plan, DefaultProfile(), rng, func() sim.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	ctx := &armv7.TrapContext{HSR: armv7.BuildHSR(armv7.ECWFx, true, 0)}

	// Window [10s, 20s].
	inj.ArmWindow(10*sim.Second, 20*sim.Second)
	now = 5 * sim.Second
	if r := inj.Hook(jailhouse.PointTrap, 0, "c", ctx); len(r.Fields) > 0 {
		t.Fatal("injected before window")
	}
	now = 15 * sim.Second
	if r := inj.Hook(jailhouse.PointTrap, 0, "c", ctx); len(r.Fields) == 0 {
		t.Fatal("did not inject inside window")
	}
	now = 25 * sim.Second
	if r := inj.Hook(jailhouse.PointTrap, 0, "c", ctx); len(r.Fields) > 0 {
		t.Fatal("injected after window (duration control failed)")
	}
}

func TestInjectorCellFilter(t *testing.T) {
	plan := &TestPlan{
		Name:       "t",
		Points:     []jailhouse.InjectionPoint{jailhouse.PointTrap},
		Intensity:  IntensityMedium,
		Rate:       1,
		TargetCPU:  AnyCPU,
		TargetCell: "freertos-cell",
	}
	rng := sim.NewRNG(5)
	inj, err := NewInjector(plan, DefaultProfile(), rng, func() sim.Time { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	ctx := &armv7.TrapContext{HSR: armv7.BuildHSR(armv7.ECWFx, true, 0)}
	if r := inj.Hook(jailhouse.PointTrap, 1, "banana-pi", ctx); len(r.Fields) > 0 {
		t.Fatal("cell filter failed")
	}
	if r := inj.Hook(jailhouse.PointTrap, 1, "freertos-cell", ctx); len(r.Fields) == 0 {
		t.Fatal("matching cell not injected")
	}
}

func TestRemapLiveField(t *testing.T) {
	dabtHSR := armv7.BuildHSR(armv7.ECDABTLow, true, armv7.BuildDataAbortISS(4, 0, false, 0x06))
	hvcHSR := armv7.BuildHSR(armv7.ECHVC, true, armv7.BuildHVCISS(armv7.JailhouseHVCImm))

	if got := remapLiveField(jailhouse.PointTrap, dabtHSR, armv7.Field(armv7.RegR1)); got != armv7.FieldHSR {
		t.Fatalf("r1 on dabt → %v, want hsr", got)
	}
	if got := remapLiveField(jailhouse.PointTrap, dabtHSR, armv7.Field(armv7.RegR2)); got != armv7.FieldHDFAR {
		t.Fatalf("r2 on dabt → %v, want hdfar", got)
	}
	if got := remapLiveField(jailhouse.PointTrap, dabtHSR, armv7.Field(armv7.RegR4)); got != armv7.Field(armv7.RegR4) {
		t.Fatal("r4 must map to itself")
	}
	if got := remapLiveField(jailhouse.PointTrap, hvcHSR, armv7.Field(armv7.RegR1)); got != armv7.Field(armv7.RegR1) {
		t.Fatal("hvc-class r1 is the hypercall argument, not the syndrome")
	}
	if got := remapLiveField(jailhouse.PointHVC, dabtHSR, armv7.Field(armv7.RegR1)); got != armv7.Field(armv7.RegR1) {
		t.Fatal("hvc point must not remap")
	}
}

func TestProfileTableSelection(t *testing.T) {
	p := DefaultProfile()
	dabtRead := armv7.BuildHSR(armv7.ECDABTLow, true, armv7.BuildDataAbortISS(4, 0, false, 0x06))
	dabtWrite := armv7.BuildHSR(armv7.ECDABTLow, true, armv7.BuildDataAbortISS(4, 0, true, 0x06))
	hvcClass := armv7.BuildHSR(armv7.ECHVC, true, 0)

	if got := p.table(jailhouse.PointTrap, dabtRead); &got == nil || got[armv7.Field(armv7.RegR0)] != 0.90 {
		t.Fatal("dabt read must use the deep table")
	}
	if got := p.table(jailhouse.PointTrap, dabtWrite); got[armv7.Field(armv7.RegR0)] != 0.05 {
		t.Fatal("dabt write must use the shallow table")
	}
	if got := p.table(jailhouse.PointTrap, hvcClass); got[armv7.Field(armv7.RegR0)] != 0.05 {
		t.Fatal("hvc-class trap must use the shallow table")
	}
	if got := p.table(jailhouse.PointIRQChip, 0); len(got) != 0 {
		t.Fatal("irqchip table must be empty (paper: predictable outcome)")
	}
	var nilProfile *SensitivityProfile
	if d := nilProfile.Sample(sim.NewRNG(1), jailhouse.PointTrap, dabtRead, GPRFields); d != jailhouse.DamageNone {
		t.Fatal("nil profile must be inert")
	}
}

func TestGoldenRunIsCorrectAndProfiled(t *testing.T) {
	gp, err := GoldenRun(1, 10*sim.Second)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	if gp.Activation[jailhouse.PointIRQChip] == 0 {
		t.Fatal("irqchip never activated")
	}
	if gp.Activation[jailhouse.PointTrap] == 0 {
		t.Fatal("trap never activated")
	}
	if gp.Activation[jailhouse.PointHVC] == 0 {
		t.Fatal("hvc never activated")
	}
	// The paper's profiling found irqchip the hottest (IRQs beat traps).
	if gp.Activation[jailhouse.PointIRQChip] < gp.Activation[jailhouse.PointTrap] {
		t.Fatal("activation ordering unexpected")
	}
	if gp.CellLines == 0 || gp.LEDToggles == 0 {
		t.Fatal("golden run produced no observable liveness")
	}
}

func TestGoldenRunDeterministicHash(t *testing.T) {
	a, err := GoldenRun(99, 5*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GoldenRun(99, 5*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatal("golden runs with same seed differ")
	}
}

func TestRunExperimentProducesArtifacts(t *testing.T) {
	plan := PlanE3Fig3()
	short := *plan
	short.Duration = 20 * sim.Second
	res, err := RunExperiment(&short, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != "E3-fig3" || res.Seed != 12345 {
		t.Fatal("metadata lost")
	}
	if res.CellTranscript == "" || res.RootTranscript == "" {
		t.Fatal("transcripts missing")
	}
	if len(res.HVConsole) == 0 {
		t.Fatal("hypervisor console missing")
	}
	if res.CallCounts[jailhouse.PointTrap] == 0 {
		t.Fatal("no matching calls recorded")
	}
	if res.Outcome() < OutcomeCorrect || res.Outcome() >= numOutcomes {
		t.Fatalf("outcome = %v", res.Outcome())
	}
}

func TestRunExperimentDeterministicPerSeed(t *testing.T) {
	plan := *PlanE3Fig3()
	plan.Duration = 15 * sim.Second
	a, err := RunExperiment(&plan, 777)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExperiment(&plan, 777)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome() != b.Outcome() || a.CellTranscript != b.CellTranscript ||
		len(a.Injections) != len(b.Injections) {
		t.Fatal("same-seed experiment runs diverged")
	}
}

func TestOutcomeNamesAndOrder(t *testing.T) {
	all := AllOutcomes()
	if len(all) != 9 {
		t.Fatalf("outcome classes = %d, want 9", len(all))
	}
	want := map[Outcome]string{
		OutcomeCorrect:        "correct",
		OutcomePanicPark:      "panic-park",
		OutcomeCPUPark:        "cpu-park",
		OutcomeInvalidArgs:    "invalid-arguments",
		OutcomeHypervisorTrap: "hypervisor-trap",
		OutcomeMachineWedge:   "machine-wedge",
		OutcomeSimFault:       "sim-fault",
	}
	for o, name := range want {
		if o.String() != name {
			t.Fatalf("%d.String() = %q, want %q", o, o.String(), name)
		}
	}
}

func TestClassifyGoldenMachineCorrect(t *testing.T) {
	m, err := BuildMachine(DefaultMachineOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	m.Run(5 * sim.Second)
	v := Classify(m)
	if v.Outcome != OutcomeCorrect {
		t.Fatalf("golden machine classified %v: %v", v.Outcome, v.Evidence)
	}
	if len(v.Evidence) == 0 {
		t.Fatal("no evidence recorded")
	}
}

func TestClassifyDetectsKernelPanicOnConsole(t *testing.T) {
	m, err := BuildMachine(DefaultMachineOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	m.Run(2 * sim.Second)
	// Force a root oops through the register-image contract.
	for i := 0; i < 256; i++ {
		m.Linux.OnCorruptedResume(0, []int{armv7.RegSP})
		if p, _ := m.Linux.Panicked(); p {
			break
		}
	}
	v := Classify(m)
	if v.Outcome != OutcomePanicPark {
		t.Fatalf("outcome = %v, want panic-park", v.Outcome)
	}
}

package core

import (
	"context"
	"testing"

	"github.com/dessertlab/certify/internal/sim"
)

// These integration tests lock the reproduction to the paper's reported
// phenomenology. Campaign sizes are kept moderate for test time; the
// benchmarks in bench_test.go run the full-size campaigns. Bands are
// deliberately loose — they encode the paper's qualitative shape, not
// this model's exact calibration point.

func runCampaign(t *testing.T, plan *TestPlan, runs int, seed uint64) *CampaignResult {
	t.Helper()
	c := &Campaign{Plan: plan, Runs: runs, MasterSeed: seed}
	res, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// E3 / Figure 3: medium intensity on the non-root cell's trap stream —
// "the cell behaves correctly in the majority of cases, although in the
// 30% a panic park happens [...] a limited number of tests brings to a
// CPU park".
func TestE3Figure3Bands(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	res := runCampaign(t, PlanE3Fig3(), 120, 2022)

	correct := res.Fraction(OutcomeCorrect) + res.Fraction(OutcomeSilentDegradation)
	panicPark := res.Fraction(OutcomePanicPark)
	cpuPark := res.Fraction(OutcomeCPUPark)

	if correct < 0.50 {
		t.Errorf("correct = %.0f%%, want majority (>50%%)", 100*correct)
	}
	if panicPark < 0.15 || panicPark > 0.45 {
		t.Errorf("panic park = %.0f%%, want ≈30%%", 100*panicPark)
	}
	if cpuPark <= 0 || cpuPark > 0.15 {
		t.Errorf("cpu park = %.0f%%, want present but limited", 100*cpuPark)
	}
	if panicPark <= cpuPark {
		t.Errorf("panic park (%.0f%%) must dominate cpu park (%.0f%%)", 100*panicPark, 100*cpuPark)
	}
}

// E3's isolation claim: after a CPU park the destroy still works and the
// root cell is unharmed — "the fault has been successfully isolated".
func TestE3CPUParkIsIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	res := runCampaign(t, PlanE3Fig3(), 150, 555)
	found := 0
	for _, run := range res.Runs {
		if run.Outcome() != OutcomeCPUPark {
			continue
		}
		found++
		// Root console must not show a kernel panic in a cpu-park run.
		if containsLine(run.RootTranscript, "Kernel panic") {
			t.Fatalf("cpu-park run %d has root kernel panic:\n%s", run.Seed, run.RootTranscript)
		}
		// The hypervisor console shows the park, and the error-code
		// evidence of the unhandled trap path.
		parkSeen := false
		for _, l := range run.HVConsole {
			if containsLine(l, "Parking CPU 1") {
				parkSeen = true
			}
		}
		if !parkSeen {
			t.Fatal("cpu-park run lacks parking console evidence")
		}
	}
	if found == 0 {
		t.Skip("no cpu-park outcome in this campaign (distribution tail)")
	}
}

// E1: high intensity on arch_handle_hvc / arch_handle_trap in root-cell
// context — management calls fail with "Invalid argument", the cell is
// not allocated, and the root cell survives.
func TestE1InvalidArgumentsDominant(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	for _, plan := range []*TestPlan{PlanE1HVC(), PlanE1Trap()} {
		t.Run(plan.Name, func(t *testing.T) {
			res := runCampaign(t, plan, 80, 99)
			inval := res.Fraction(OutcomeInvalidArgs)
			panicPark := res.Fraction(OutcomePanicPark)
			if inval < 0.30 {
				t.Errorf("invalid-arguments = %.0f%%, want the dominant failure class", 100*inval)
			}
			if panicPark > 0.25 {
				t.Errorf("panic park = %.0f%%, root-context injections must rarely crash the system", 100*panicPark)
			}
			if inval <= panicPark {
				t.Errorf("EINVAL (%.0f%%) must dominate panics (%.0f%%)", 100*inval, 100*panicPark)
			}
			// Every invalid-arguments run carries the tool's errno line.
			for _, run := range res.Runs {
				if run.Outcome() == OutcomeInvalidArgs && !containsLine(run.RootTranscript, "failed") {
					t.Fatal("invalid-arguments run lacks tool error evidence")
				}
			}
		})
	}
}

// E2: high intensity filtered to CPU core 1 — the cell is allocated but
// broken (blank USART) while Jailhouse reports it RUNNING; shutdown still
// returns the resources.
func TestE2InconsistentStateReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	res := runCampaign(t, PlanE2Core1(), 100, 4242)
	inconsistent := res.Count(OutcomeInconsistent)
	if inconsistent == 0 {
		t.Fatal("E2 never reached the paper's inconsistent state")
	}
	// Verify the signature on one inconsistent run: cell reported
	// RUNNING by the watchdog while the cell console stayed blank.
	verified := false
	for _, run := range res.Runs {
		if run.Outcome() != OutcomeInconsistent {
			continue
		}
		hasEvidence := false
		for _, e := range run.Verdict.Evidence {
			if containsLine(e, "USART") || containsLine(e, "never") || containsLine(e, "silent") || containsLine(e, "non-executable") {
				hasEvidence = true
			}
		}
		if hasEvidence {
			verified = true
			break
		}
	}
	if !verified {
		t.Fatal("no inconsistent run carries blank-console evidence")
	}
}

// E2 follow-through: after the broken state, destroy must return the CPU
// to the root cell without error (the paper's recovery observation).
func TestE2DestroyRecoversBrokenCell(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	// Reproduce a deterministic inconsistent run, then destroy.
	res := runCampaign(t, PlanE2Core1(), 60, 4242)
	var seed uint64
	found := false
	for _, run := range res.Runs {
		if run.Outcome() == OutcomeInconsistent {
			seed = run.Seed
			found = true
			break
		}
	}
	if !found {
		t.Skip("no inconsistent outcome in this batch")
	}

	// Re-run the same seed manually so we hold the machine afterwards.
	m, err := BuildMachine(MachineOptions{Seed: seed, DelayedCreate: true, StateWatchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	injSeed := seed
	rng := simNewRNGFrom(&injSeed)
	inj, err := NewInjector(PlanE2Core1(), DefaultProfile(), rng, m.Board.Now)
	if err != nil {
		t.Fatal(err)
	}
	m.HV.Hook = inj.Hook
	m.Run(PlanE2Core1().EffectiveDuration())

	if v := Classify(m); v.Outcome != OutcomeInconsistent {
		t.Skipf("replay classified %v (engine state differs before destroy)", v.Outcome)
	}
	m.HV.Hook = nil
	cell, ok := m.HV.CellByName("freertos-cell")
	if !ok {
		t.Fatal("cell missing")
	}
	if err := m.Linux.CellDestroy(cell.ID); err != nil {
		t.Fatalf("destroy of broken cell failed: %v", err)
	}
	if !m.HV.RootCell().HasCPU(1) {
		t.Fatal("CPU 1 did not return to the root cell")
	}
}

// A3: the injection point the paper excluded — corrupting the IRQ number
// yields a predictable, harmless IRQ error.
func TestA3IRQChipPredictable(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	res := runCampaign(t, PlanA3IRQ(), 40, 31337)
	correct := res.Fraction(OutcomeCorrect) + res.Fraction(OutcomeSilentDegradation)
	if correct < 0.90 {
		t.Errorf("irqchip injections correct = %.0f%%, want ≥90%% (predictable per the paper)", 100*correct)
	}
	// And the predictable "IRQ error" evidence shows up somewhere.
	seen := false
	for _, run := range res.Runs {
		for _, l := range run.HVConsole {
			if containsLine(l, "IRQ error") {
				seen = true
			}
		}
	}
	if !seen {
		t.Error("no IRQ-error console evidence across the A3 campaign")
	}
}

// The deterministic-replay property at campaign level: same master seed,
// same distribution.
func TestCampaignReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	plan := *PlanE3Fig3()
	plan.Duration = 15e9 // 15 virtual seconds keeps it quick
	a := runCampaign(t, &plan, 30, 1)
	b := runCampaign(t, &plan, 30, 1)
	for _, o := range AllOutcomes() {
		if a.Count(o) != b.Count(o) {
			t.Fatalf("distribution differs for %v: %d vs %d", o, a.Count(o), b.Count(o))
		}
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before scheduling
	c := &Campaign{Plan: PlanE3Fig3(), Runs: 50, MasterSeed: 5}
	if _, err := c.Execute(ctx); err == nil {
		t.Fatal("fully cancelled campaign must error (no runs)")
	}
}

func TestSEooCReportFindsViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	report, err := QuickAssessment(2022, 20, 20e9)
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalRuns != 60 {
		t.Fatalf("runs = %d, want 60", report.TotalRuns)
	}
	// The paper's conclusion: Jailhouse is NOT ready for SEooC — both
	// the inconsistent-state and propagation claims fall.
	if report.Violated() == 0 {
		t.Fatal("assessment found no violations — contradicts the paper's conclusion")
	}
	text := report.Render()
	for _, want := range []string{"AoU-1", "AoU-5", "VIOLATED", "requires change"} {
		if !containsLine(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

// containsLine is a tiny substring helper.
func containsLine(haystack, needle string) bool {
	return len(needle) > 0 && len(haystack) >= len(needle) && indexOfSub(haystack, needle) >= 0
}

func indexOfSub(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// simNewRNGFrom derives an injector RNG the same way RunExperiment does.
func simNewRNGFrom(seed *uint64) *sim.RNG {
	return sim.NewRNG(sim.SplitMix64(seed))
}

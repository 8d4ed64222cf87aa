package core

import (
	"strings"
	"testing"

	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

// shortPlan is PlanE3Fig3 cut to 8 virtual seconds — long enough for
// the cell to come up (2s) and the first injection to fire (~6.5s),
// short enough to sweep many runs per test second.
func shortPlan() *TestPlan {
	p := *PlanE3Fig3()
	p.Name = "E3-short"
	p.Duration = 8 * sim.Second
	return &p
}

// taintModel corrupts the hypervisor's firmware region when triggered:
// the next handler entry on an unparked CPU takes an internal HYP trap.
type taintModel struct{}

func (taintModel) Name() string             { return "test-taint" }
func (taintModel) Plan(rng *sim.RNG) []Flip { return nil }
func (taintModel) ApplyMachine(m *Machine, rng *sim.RNG, point jailhouse.InjectionPoint, cpu int) string {
	m.HV.TaintFirmware("test: firmware text corrupted")
	return "firmware tainted"
}

// wedgeModel livelocks the event loop: a zero-delay event that reposts
// itself forever, with the watchdog budget tightened so the trip costs
// milliseconds of test time instead of the default 2^17 events.
type wedgeModel struct{}

func (wedgeModel) Name() string             { return "test-wedge" }
func (wedgeModel) Plan(rng *sim.RNG) []Flip { return nil }
func (wedgeModel) ApplyMachine(m *Machine, rng *sim.RNG, point jailhouse.InjectionPoint, cpu int) string {
	m.Board.Engine.SetWedgeLimit(4096)
	armSpin(m)
	return "event-loop livelock armed"
}

// spinKind is a handler kind past the machine's table, for tests only.
const spinKind = board.NumEventKinds

// armSpin queues a zero-delay event whose handler reposts it forever —
// a livelock only the wedge watchdog ends.
func armSpin(m *Machine) {
	eng := m.Board.Engine
	m.Board.Handle(spinKind, func(int32, uint64) { eng.After(0, spinKind, 0, 0) })
	eng.After(0, spinKind, 0, 0)
}

// panicModel is a defective fault model: its planner panics. The run
// boundary must recover it into a sim-fault verdict, not a dead process.
type panicModel struct{}

func (panicModel) Name() string             { return "test-panic" }
func (panicModel) Plan(rng *sim.RNG) []Flip { panic("defective fault model") }

// TestClassifyGracefulDegradation drives each degradation path end to
// end through RunExperiment — trigger, outcome class, evidence wording,
// and the detection-latency semantics: internal HYP traps and watchdog
// trips are detection events (latency >= 0 measured from the first
// injection); a recovered simulation fault is not a detection.
func TestClassifyGracefulDegradation(t *testing.T) {
	for _, tc := range []struct {
		name         string
		model        FaultModel
		want         Outcome
		evidence     string
		wantDetected bool
		// wantInjection: the trigger completes and logs a record. False
		// for the sim-fault case — the panic unwinds the injection
		// mid-flight, before its record could be appended.
		wantInjection bool
	}{
		{"hypervisor-trap", taintModel{}, OutcomeHypervisorTrap, "HYP-mode trap", true, true},
		{"machine-wedge", wedgeModel{}, OutcomeMachineWedge, "bounded-progress watchdog", true, true},
		{"sim-fault", panicModel{}, OutcomeSimFault, "simulation fault", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := NewCustomPlan("graceful-"+tc.name, shortPlan(), tc.model)
			res, err := RunExperiment(plan, 7)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome() != tc.want {
				t.Fatalf("outcome = %v, want %v (evidence: %v)", res.Outcome(), tc.want, res.Verdict.Evidence)
			}
			found := false
			for _, e := range res.Verdict.Evidence {
				if strings.Contains(e, tc.evidence) {
					found = true
				}
			}
			if !found {
				t.Errorf("evidence %v does not mention %q", res.Verdict.Evidence, tc.evidence)
			}
			if tc.wantInjection && len(res.Injections) == 0 {
				t.Fatal("no injection recorded — the trigger never fired")
			}
			if detected := res.DetectionLatency >= 0; detected != tc.wantDetected {
				t.Errorf("detection latency = %v, want detected=%v", res.DetectionLatency, tc.wantDetected)
			}
		})
	}
}

// TestGracefulRunsAreDeterministic pins that the degradation paths stay
// inside the reproducibility contract: same plan, same seed, same trace.
func TestGracefulRunsAreDeterministic(t *testing.T) {
	for _, model := range []FaultModel{taintModel{}, wedgeModel{}} {
		plan := NewCustomPlan("graceful-determinism", shortPlan(), model)
		a, err := RunExperimentOpts(plan, 9, RunOptions{CaptureTraceHash: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunExperimentOpts(plan, 9, RunOptions{CaptureTraceHash: true})
		if err != nil {
			t.Fatal(err)
		}
		if a.TraceHash != b.TraceHash || a.Outcome() != b.Outcome() {
			t.Fatalf("%s: replay diverged: %v/%#x vs %v/%#x",
				model.Name(), a.Outcome(), a.TraceHash, b.Outcome(), b.TraceHash)
		}
	}
}

// TestCampaignResultMergesNewClasses pins the aggregate layer: the three
// degradation classes fold through AddSample and MergeFrom like any
// paper-taxonomy class, including the detection-latency mean.
func TestCampaignResultMergesNewClasses(t *testing.T) {
	a := &CampaignResult{}
	a.AddSample(OutcomeHypervisorTrap, 2, 5*sim.Millisecond)
	a.AddSample(OutcomeCorrect, 1, -1)
	b := &CampaignResult{}
	b.AddSample(OutcomeMachineWedge, 1, 15*sim.Millisecond)
	b.AddSample(OutcomeSimFault, 0, -1)

	a.MergeFrom(b)
	for o, want := range map[Outcome]int{
		OutcomeHypervisorTrap: 1,
		OutcomeMachineWedge:   1,
		OutcomeSimFault:       1,
		OutcomeCorrect:        1,
	} {
		if got := a.Count(o); got != want {
			t.Errorf("count(%v) = %d, want %d", o, got, want)
		}
	}
	if a.Total() != 4 || a.InjectionsTotal() != 4 {
		t.Errorf("total=%d injections=%d, want 4/4", a.Total(), a.InjectionsTotal())
	}
	if got := a.MeanDetectionLatency(); got != 10*sim.Millisecond {
		t.Errorf("mean detection latency = %v, want 10ms", got)
	}
}

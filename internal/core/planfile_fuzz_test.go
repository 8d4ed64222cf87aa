package core

import "testing"

// FuzzParsePlan feeds arbitrary text to the plan-file parser, a trust
// boundary (plan files arrive from operators and inside spec files). It
// must never panic, and must either refuse the text with an error or
// return a plan whose canonical rendering parses back to the same plan.
func FuzzParsePlan(f *testing.F) {
	for _, name := range BuiltinPlanNames() {
		p, err := PlanByName(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(MarshalPlan(p))
	}
	f.Add("name = x\npoints = arch_handle_hvc\nintensity = high\nfault = ram # comment\n")
	f.Add("points = irqchip_handle_irq,arch_handle_trap\nduration = -5s\nrate = -1\n")
	f.Add("cpu = 99999999999999999999\n=\n#\n")
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParsePlan(text)
		if err != nil {
			if p != nil {
				t.Fatalf("ParsePlan returned a plan with error %v", err)
			}
			return
		}
		if p == nil {
			t.Fatal("ParsePlan returned neither a plan nor an error")
		}
		canon := MarshalPlan(p)
		q, err := ParsePlan(canon)
		if err != nil {
			t.Fatalf("canonical rendering does not parse: %v\n%s", err, canon)
		}
		if again := MarshalPlan(q); again != canon || q.Hash() != p.Hash() {
			t.Fatalf("plan does not round-trip:\n%s\nvs\n%s", canon, again)
		}
	})
}

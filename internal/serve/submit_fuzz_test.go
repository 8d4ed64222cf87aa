package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzSubmitRequest feeds arbitrary POST /campaigns bodies through the
// submit path's strict decode and buildSpec. Nothing may panic. A body
// that decodes must yield either a usage-class *APIError or a spec that
// passes Validate, whose cache key is stable: validating the spec again
// and rebuilding it from the re-encoded request give the same key.
func FuzzSubmitRequest(f *testing.F) {
	for _, req := range []*SubmitRequest{
		{PlanFile: shortPlanText, Runs: 18, Seed: 2022, CIWidth: 60},
		{PlanFile: shortPlanText, MaxRuns: 18, CIWidth: 60},
		{PlanFile: shortPlanText, MaxRuns: 10},
		{PlanFile: shortPlanText, Runs: 10, MaxRuns: 12, CIWidth: 50},
		{PlanFile: shortPlanText, Runs: 10, MinRuns: 4},
		{PlanFile: shortPlanText, Runs: 10, CIWidth: -5},
		{PlanFile: shortPlanText, Runs: 4, Seed: 11, Mode: "full"},
		{PlanFile: shortPlanText, Runs: 2, Seed: 5},
		{Plan: "E3-fig3", Runs: 40, Seed: 2022},
		{Plan: "E1-hvc", Runs: 120, Seed: 2022, Mode: "full"},
		{Tenant: "noisy", Plan: "E3-fig3", Runs: 40, Seed: 100},
		{Runs: 4, Seed: 1},
		{Plan: "E3-fig3", PlanFile: shortPlanText, Runs: 4},
		{Plan: "nope", Runs: 4},
		{PlanFile: "points =", Runs: 4},
		{Plan: "E3-fig3", Runs: 0},
		{Plan: "E3-fig3", Runs: 11},
		{Plan: "E3-fig3", Runs: 4, Mode: "verbose"},
		{Plan: "E3-fig3", Runs: 4, Fault: "not-a-model"},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"plan":"E3-fig3","runs":4,"sede":1}`))
	f.Add([]byte(`{"plan":"E3-fig3","runs":4,"seed":"0xffffffffffffffff","stratify":true}`))

	s := &Server{cfg: Config{MaxRuns: 100000}}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return // the handler answers 400 usage
		}
		spec, err := s.buildSpec(req)
		if err != nil {
			var ae *APIError
			if spec != nil || !errors.As(err, &ae) || ae.Class != ClassUsage {
				t.Fatalf("buildSpec(%s) = %v, %v: want a usage-class *APIError", body, spec, err)
			}
			return
		}
		key := cacheKey(spec)
		if err := spec.Validate(); err != nil {
			t.Fatalf("buildSpec(%s) returned a spec that fails Validate: %v", body, err)
		}
		if again := cacheKey(spec); again != key {
			t.Fatalf("Validate moved the cache key: %s → %s", key, again)
		}
		reencoded, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		req2, err := decodeSubmit(bytes.NewReader(reencoded))
		if err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", reencoded, err)
		}
		spec2, err := s.buildSpec(req2)
		if err != nil {
			t.Fatalf("re-encoded request %s refused: %v", reencoded, err)
		}
		if again := cacheKey(spec2); again != key {
			t.Fatalf("re-encoded request keys %s, want %s", again, key)
		}
	})
}

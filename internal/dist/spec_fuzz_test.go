package dist

import (
	"bytes"
	"testing"

	"github.com/dessertlab/certify/internal/core"
)

// FuzzDecodeSpec feeds arbitrary bytes to the spec decoder, the file a
// fan-out hands each shard worker. It must never panic, and must either
// refuse the bytes with an error or return a spec that encodes and
// decodes back to the same campaign and the same bytes.
func FuzzDecodeSpec(f *testing.F) {
	for _, s := range []*Spec{
		{Plan: core.PlanE3Fig3(), Runs: 40, MasterSeed: 2022, Shards: 2, Mode: core.ModeDistribution},
		{Plan: core.PlanE1HVC(), Runs: 300, MasterSeed: 7, Shards: 3, Mode: core.ModeFull, Stratify: true,
			Stop: &core.StopSpec{Policy: core.StopPolicyCIWidth, WidthBP: 600}},
	} {
		var buf bytes.Buffer
		if err := EncodeSpec(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"schema":1,"plan":"","plan_hash":"0x0","runs":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			if s != nil {
				t.Fatalf("DecodeSpec returned a spec with error %v", err)
			}
			return
		}
		var enc bytes.Buffer
		if err := EncodeSpec(&enc, s); err != nil {
			t.Fatalf("decoded spec does not encode: %v", err)
		}
		back, err := DecodeSpec(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("encoded spec does not decode: %v\n%s", err, enc.Bytes())
		}
		var again bytes.Buffer
		if err := EncodeSpec(&again, back); err != nil {
			t.Fatal(err)
		}
		if !s.SameCampaign(back) || !bytes.Equal(enc.Bytes(), again.Bytes()) {
			t.Fatalf("spec does not round-trip:\n%s\nvs\n%s", enc.Bytes(), again.Bytes())
		}
	})
}

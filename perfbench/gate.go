package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
)

// goldenTraceHash is the engine fingerprint: the trace hash of the
// fault-free one-minute golden run.
const goldenTraceHash = "0xa10df7f198db0642"

// goldenSplit is the seed-2022 40-run E3-fig3 campaign the repository
// pins: 23 correct, 1 inconsistent, 16 panic-park, 56 injections.
var goldenSplit = map[core.Outcome]int{
	core.OutcomeCorrect:      23,
	core.OutcomeInconsistent: 1,
	core.OutcomePanicPark:    16,
}

const goldenInjections = 56

var goldenHashLine = regexp.MustCompile(`trace hash: (0x[0-9a-f]+)`)

// goldenGate checks the binary under test before anything is timed:
// `certify golden` must print the engine fingerprint, and the seed-2022
// 40-run E3-fig3 campaign must reproduce its pinned split.
func goldenGate(e *env) error {
	start := time.Now()
	logPath := filepath.Join(e.work, "golden.log")
	p, err := e.procs.launch(e.bin, []string{"golden"}, logPath)
	if err != nil {
		return err
	}
	if err := p.wait(60 * time.Second); err != nil {
		return fmt.Errorf("certify golden: %v", err)
	}
	out, err := os.ReadFile(logPath)
	if err != nil {
		return err
	}
	m := goldenHashLine.FindSubmatch(out)
	if m == nil || string(m[1]) != goldenTraceHash {
		return fmt.Errorf("certify golden printed no trace hash %s:\n%s", goldenTraceHash, out)
	}

	artefact := filepath.Join(e.work, "golden-split.jsonl")
	p, err = e.procs.launch(e.bin, []string{"campaign", "-plan", "E3-fig3", "-runs", "40", "-seed", "2022",
		"-mode", "distribution", "-out", artefact}, filepath.Join(e.work, "golden-split.log"))
	if err != nil {
		return err
	}
	if err := p.wait(60 * time.Second); err != nil {
		return fmt.Errorf("certify campaign (seed-2022 split): %v", err)
	}
	sf, err := dist.ReadShard(artefact)
	if err != nil {
		return err
	}
	if !sf.Complete || sf.Result.Total() != 40 {
		return fmt.Errorf("seed-2022 split artefact incomplete (%d runs)", sf.Records)
	}
	for _, o := range core.AllOutcomes() {
		if got := sf.Result.Count(o); got != goldenSplit[o] {
			return fmt.Errorf("seed-2022 split: %v = %d, want %d", o, got, goldenSplit[o])
		}
	}
	if got := sf.Result.InjectionsTotal(); got != goldenInjections {
		return fmt.Errorf("seed-2022 split: %d injections, want %d", got, goldenInjections)
	}
	e.report.note(fmt.Sprintf("golden gate passed: %s, 23/1/16 with 56 injections (%.2fs)",
		goldenTraceHash, time.Since(start).Seconds()))
	return nil
}

// Quickstart: boot the Banana Pi model, enable the hypervisor, create the
// FreeRTOS cell with the paper's workload and watch both consoles for a
// few virtual seconds. The whole mixed-criticality deployment of the
// paper, in one main.
package main

import (
	"fmt"
	"log"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/sim"
)

func main() {
	m, err := core.BuildMachine(core.DefaultMachineOptions(2022))
	if err != nil {
		log.Fatalf("build machine: %v", err)
	}

	// Run five virtual seconds; the engine returns in milliseconds of
	// wall-clock time.
	m.Run(5 * sim.Second)

	fmt.Println("=== root cell console (UART0, Linux) ===")
	fmt.Print(m.Board.UART0.Transcript())
	fmt.Println("\n=== non-root cell console (UART7, FreeRTOS) ===")
	fmt.Print(m.Board.UART7.Transcript())

	fmt.Println("\n=== hypervisor cell list ===")
	for _, c := range m.HV.Cells() {
		fmt.Println("  ", c)
	}
	fmt.Printf("\nLED toggles: %d, FreeRTOS ticks: %d, trace: %s\n",
		m.RTOS.LEDToggleCount(), m.RTOS.Tick(), m.Board.Trace().Summary())
}

// Quickstart: generate robust path delay fault tests for the ISCAS85 c17
// benchmark and print every fault, its classification and its test pattern,
// consuming the results as a stream while the generator works.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"repro/atpg"
)

func main() {
	// 1. Pick a circuit.  atpg.Builtin also understands "c432", "adder16",
	//    ...; a .bench file on disk is loaded with atpg.LoadBench.
	c, err := atpg.Builtin("c17")
	if err != nil {
		panic(err)
	}
	fmt.Println("circuit:", c)

	// 2. Enumerate the target faults.  c17 is tiny, so all 22 path delay
	//    faults (11 paths x 2 transitions) are targeted.
	faults := atpg.AllFaults(c, 0)
	fmt.Printf("targeting %d path delay faults (%s structural paths)\n\n",
		len(faults), c.PathCount().String())

	// 3. Build the engine with the default robust options: FPTPG first,
	//    APTPG for the hard faults, fault-simulation dropping of the
	//    faults existing patterns already detect.
	e, err := atpg.New(c, atpg.WithMode(atpg.Robust))
	if err != nil {
		panic(err)
	}

	// 4. Stream the per-fault results: each fault is printed the moment its
	//    classification is final.  (Engine.Run returns them as one slice in
	//    input order instead; breaking out of this loop would cancel the
	//    rest of the generation.)
	for r := range e.Stream(context.Background(), faults) {
		line := fmt.Sprintf("%-32s %-24s", c.Describe(r.Fault), fmt.Sprintf("%s (%s)", r.Status, r.Phase))
		if r.Status == atpg.Tested {
			line += "  test: " + r.Test.String()
		}
		fmt.Println(line)
	}
	// 5. Summarize.  Coverage.Fraction is the covered share of the targeted
	//    faults; Coverage.Efficiency is the paper's fault-efficiency metric,
	//    (1 - aborted/faults) * 100%.
	cov := e.Coverage()
	fmt.Println()
	fmt.Println("summary:", e.Stats().String())
	fmt.Printf("coverage: %.1f%%, efficiency: %.1f%%\n", cov.Fraction()*100, cov.Efficiency())
	fmt.Printf("test set (%d pairs):\n%s", e.Tests().Len(), e.Tests().String())
}

package main

import (
	"fmt"
	"sort"
)

// runVet simulates every pool entry of the given workloads once and
// compares what fails an output check with the workloads' deny lists. A
// failing entry that is not denied would sooner or later be drawn by
// some -seed and fail that run, so it makes the exit code 1; a denied
// entry that passes is only reported, as a list to shorten. Run it after
// any change to what the simulation computes (README, "Vetting the
// pool"): about 13 minutes for all four workloads on the 2-CPU host.
func runVet(ws []*workload) int {
	code := 0
	for _, w := range ws {
		failing := map[uint64]string{}
		for k := uint64(0); k < poolSize; k++ {
			out, err := w.run(hashSeed(k), traceCtx{})
			if err != nil {
				out.failf("iteration error: %v", err)
			}
			if len(out.failures) > 0 {
				failing[k] = out.failures[0]
			}
		}
		var entries []uint64
		for k := range failing {
			entries = append(entries, k)
		}
		for k := range w.deny {
			if failing[k] == "" {
				entries = append(entries, k)
			}
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
		fmt.Printf("== %s: %d of %d pool entries fail a check, %d are denied\n", w.name, len(failing), poolSize, len(w.deny))
		for _, k := range entries {
			switch {
			case failing[k] == "":
				fmt.Printf("  entry %d is denied but passes now: %s\n", k, w.deny[k])
			case w.deny[k] == "":
				fmt.Printf("  entry %d FAILS AND IS NOT DENIED: %s\n", k, failing[k])
				code = 1
			default:
				fmt.Printf("  entry %d is denied and fails: %s\n", k, failing[k])
			}
		}
	}
	return code
}

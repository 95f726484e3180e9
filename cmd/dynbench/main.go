// Command dynbench regenerates the paper's experimental results on stdout.
// It takes no flags and prints four sections, in this order:
//
//  1. Table 2 (speedups, breakeven points, overheads) and Table 3
//     (optimizations applied dynamically);
//  2. the same two tables with the section 7 merged set-up+stitch mode;
//  3. the tables again, then the section 5 register-actions result;
//  4. the tables again, then the Figure 1 / section 4 cache-lookup
//     walk-through.
//
// Each section is exactly what one earlier invocation printed (plain,
// -merged, -regactions and -figure1), so captures of those invocations
// still compare byte for byte. Every figure is a modeled guest-cycle count,
// so the output is deterministic; testdata/paper.golden pins it. After an
// intended change, regenerate it with
//
//	go run ./cmd/dynbench > cmd/dynbench/testdata/paper.golden
//
// Host-time and per-layer measurements live in the perfbench module.
package main

import (
	"fmt"
	"io"
	"os"

	"dyncc/internal/bench"
)

func main() {
	if err := render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dynbench:", err)
		os.Exit(1)
	}
}

// render writes the four sections to w.
func render(w io.Writer) error {
	plain, err := bench.Table2(bench.Config{})
	if err != nil {
		return err
	}
	merged, err := bench.Table2(bench.Config{MergedStitch: true})
	if err != nil {
		return err
	}
	printTables(w, plain)
	printTables(w, merged)

	printTables(w, plain)
	base, err := bench.Calculator(bench.Config{})
	if err != nil {
		return err
	}
	ra, err := bench.Calculator(bench.Config{RegisterActions: true})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Section 5: register actions (calculator)")
	fmt.Fprintf(w, "  plain stitching:   speedup %.2f\n", base.Speedup)
	fmt.Fprintf(w, "  register actions:  speedup %.2f (loads promoted %d, stores promoted %d)\n",
		ra.Speedup, ra.Stitch.LoadsPromoted, ra.Stitch.StoresPromoted)

	printTables(w, plain)
	return bench.Figure1(w)
}

// printTables writes Table 2 and Table 3 for one set of rows.
func printTables(w io.Writer, rows []*bench.Measurement) {
	fmt.Fprintln(w, "Table 2: Speedup and Breakeven Point Results")
	bench.PrintTable2(w, rows)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Table 3: Optimizations Applied Dynamically")
	bench.PrintTable3(w, bench.Table3(rows))
	fmt.Fprintln(w)
}

// Command tracegen records a synthetic workload's post-LLC access stream
// to a trace file for deterministic replay (laddersim -trace, or
// sim.Config.TraceFile). Recorded traces decouple workload generation
// from simulation: the same stream can be replayed under every scheme, or
// shared between machines.
//
// Usage:
//
//	tracegen -workload mcf -n 200000 -o mcf.trace
//	tracegen -i mcf.trace -stats        # inspect a trace
package main

import (
	"flag"
	"fmt"
	"os"

	"ladder/internal/compress"
	"ladder/internal/reram"
	"ladder/internal/trace"
)

func main() {
	var (
		workload = flag.String("workload", "lbm", "benchmark to record")
		n        = flag.Uint64("n", 100_000, "number of accesses to record")
		seed     = flag.Int64("seed", 42, "generator seed")
		out      = flag.String("o", "", "output trace file")
		in       = flag.String("i", "", "inspect an existing trace instead of recording")
		stats    = flag.Bool("stats", false, "print trace statistics")
	)
	flag.Parse()

	if *in != "" {
		inspect(*in)
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -o required (or -i to inspect)")
		os.Exit(1)
	}
	prof, err := trace.Lookup(*workload)
	if err != nil {
		fatal(err)
	}
	// Bound the footprint the way the simulator does for the default
	// geometry, so recorded traces replay against it.
	geom := reram.DefaultGeometry()
	regionPages := geom.Lines() / reram.BlocksPerRow / 2
	if uint64(prof.WorkingSetPages) > regionPages {
		prof.WorkingSetPages = int(regionPages)
	}
	gen, err := trace.NewGenerator(prof, *seed, 0)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := trace.Record(f, gen, *workload, *seed, *n); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %d accesses of %s (seed %d) to %s\n", *n, *workload, *seed, *out)
	if *stats {
		inspect(*out)
	}
}

func inspect(path string) {
	rep, err := trace.LoadFile(path)
	if err != nil {
		fatal(err)
	}
	var reads, writes, gaps uint64
	var ones, compressible int
	pages := map[uint64]bool{}
	for i := 0; i < rep.Len(); i++ {
		a := rep.Next()
		gaps += uint64(a.Gap)
		pages[a.Line/reram.BlocksPerRow] = true
		if a.Write {
			writes++
			ones += a.Data.Ones()
			if compress.Compressible(a.Data[:]) {
				compressible++
			}
		} else {
			reads++
		}
	}
	total := reads + writes
	fmt.Printf("trace               %s\n", path)
	fmt.Printf("workload            %s (seed %d)\n", rep.Workload, rep.Seed)
	fmt.Printf("accesses            %d (%d reads, %d writes)\n", total, reads, writes)
	fmt.Printf("instructions        %d (approx, sum of gaps)\n", gaps+total)
	fmt.Printf("pages touched       %d\n", len(pages))
	fmt.Printf("max line address    %d\n", rep.MaxLine())
	if writes > 0 {
		fmt.Printf("write ones density  %.3f\n", float64(ones)/float64(writes*64*8))
		fmt.Printf("compressible        %.1f%%\n", 100*float64(compressible)/float64(writes))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

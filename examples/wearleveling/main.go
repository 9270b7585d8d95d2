// Wearleveling reproduces the paper's Section 6.4 analysis: LADDER's
// metadata maintenance adds a few percent of write traffic, and once
// segment-based vertical wear leveling spreads all writes across the
// device, lifetime scales inversely with that traffic. The example runs
// LADDER-Hybrid with and without Start-Gap VWL, then reads the lifetime
// off the measured write counts.
package main

import (
	"fmt"
	"log"

	"ladder"
)

func main() {
	const workload = "mcf"
	const instr = 3_000_000

	base, err := ladder.Run(ladder.Config{
		Workload: workload, Scheme: ladder.SchemeBaseline, InstrPerCore: instr,
	})
	if err != nil {
		log.Fatal(err)
	}
	hybrid, err := ladder.Run(ladder.Config{
		Workload: workload, Scheme: ladder.SchemeHybrid, InstrPerCore: instr,
	})
	if err != nil {
		log.Fatal(err)
	}
	leveled, err := ladder.Run(ladder.Config{
		Workload: workload, Scheme: ladder.SchemeHybrid, InstrPerCore: instr,
		WearLeveling: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s, scheme LADDER-Hybrid\n\n", workload)
	fmt.Printf("baseline writes          %d\n", base.Stats.DataWrites)
	fmt.Printf("hybrid data writes       %d\n", hybrid.Stats.DataWrites)
	fmt.Printf("hybrid metadata writes   %d (+%.1f%%)\n",
		hybrid.Stats.MetaWrites, 100*hybrid.Stats.ExtraWriteFraction())

	rel := hybrid.Stats.LeveledLifetime()
	fmt.Printf("\nrelative lifetime under ideal wear leveling: %.1f%% of baseline\n", 100*rel)
	fmt.Printf("(paper: LADDER-Hybrid retains 97.1%% with ~3%% extra writes)\n")

	fmt.Printf("\nwith Start-Gap VWL enabled:\n")
	fmt.Printf("gap moves                %d\n", leveled.Remap.GapMoves)
	fmt.Printf("IPC without VWL          %.4f\n", hybrid.AvgIPC())
	fmt.Printf("IPC with VWL             %.4f (%.1f%% of unleveled)\n",
		leveled.AvgIPC(), 100*leveled.AvgIPC()/hybrid.AvgIPC())
	fmt.Printf("max row writes (no WL)   %d of %d total — the hotspot VWL spreads\n",
		hybrid.MaxRowWrites, hybrid.TotalStoreWrites)
}

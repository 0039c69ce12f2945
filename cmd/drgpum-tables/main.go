// Command drgpum-tables regenerates the paper's Table 1 (pattern matrix)
// and Table 4 (peak-memory reductions and speedups) from the re-implemented
// workloads.
//
// Usage:
//
//	drgpum-tables [-table 1|4|all] [-j N] [-stats]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/obs"
	"drgpum/internal/tables"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("drgpum-tables: ")
	which := flag.String("table", "all", "which table to regenerate: 1, 4 or all")
	outDir := flag.String("o", "", "also write artifact-style result files (patterns.txt, memory_peak.txt) into this directory")
	jobs := flag.Int("j", 0, "max concurrent profiling runs (0 = GOMAXPROCS; 1 = in submission order, byte-identical output); speedup runs always execute exclusively")
	stats := flag.Bool("stats", false, "print the engine's aggregated self-observability (phases with wall time, counters) after the tables")
	flag.Parse()

	var master *obs.Recorder
	if *stats {
		master = obs.New()
	}
	eng := engine.New(engine.Config{Workers: *jobs, Obs: master})

	results := func(name string, render func(w *os.File)) {
		if *outDir == "" {
			return
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(filepath.Join(*outDir, name))
		if err != nil {
			log.Fatal(err)
		}
		render(f)
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", filepath.Join(*outDir, name))
	}

	if *which == "1" || *which == "all" {
		rows, err := tables.Table1With(eng, gpu.SpecRTX3090())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Table 1: patterns of memory inefficiencies found in the workloads")
		tables.RenderTable1(os.Stdout, rows)
		fmt.Println()
		results("patterns.txt", func(w *os.File) { tables.RenderTable1(w, rows) })
	}
	if *which == "4" || *which == "all" {
		rows, err := tables.Table4With(eng)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Table 4: peak memory reductions and speedups guided by DrGPUM")
		tables.RenderTable4(os.Stdout, rows)
		results("memory_peak.txt", func(w *os.File) { tables.RenderTable4(w, rows) })
	}
	if *stats {
		fmt.Println()
		master.Snapshot().WriteText(os.Stdout, true)
	}
}

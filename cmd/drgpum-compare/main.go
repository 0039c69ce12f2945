// Command drgpum-compare regenerates the paper's Table 5: which of the ten
// inefficiency patterns DrGPUM, a ValueExpert-style value profiler, and a
// Compute-Sanitizer-style memcheck can detect across the workload suite.
//
// Usage:
//
//	drgpum-compare [-j N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"drgpum/internal/engine"
	"drgpum/internal/gpu"
	"drgpum/internal/tables"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("drgpum-compare: ")
	jobs := flag.Int("j", 0, "max concurrent runs (0 = GOMAXPROCS; 1 = in submission order, byte-identical output)")
	flag.Parse()

	rows, err := tables.Table5With(engine.New(engine.Config{Workers: *jobs}), gpu.SpecRTX3090())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table 5: DrGPUM vs state-of-the-art tools")
	tables.RenderTable5(os.Stdout, rows)
}

// Scaling sweeps the synthetic ChIP application family over increasing
// sizes, from 17 to 2049 units, demonstrating the paper's headline
// claim: Columba S synthesizes designs with hundreds of functional units
// in minutes (here: thousands in seconds), with control inlets growing
// logarithmically (2*ceil(log2 n)+1 per multiplexer).
//
// Run with:
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"time"

	"columbas/internal/cases"
	"columbas/internal/core"
)

func main() {
	fmt.Printf("%6s %6s %8s %14s %10s %8s %10s\n",
		"nIP", "#u", "groups", "dim (mm)", "L_f (mm)", "#c_in", "runtime")
	configs := []struct{ nIP, groups int }{
		{8, 2}, {16, 4}, {32, 4}, {64, 8}, {128, 16}, {256, 32}, {512, 64}, {1024, 128},
	}
	for _, cfg := range configs {
		c, err := cases.ChIPScale(cfg.nIP, cfg.groups)
		if err != nil {
			log.Fatal(err)
		}
		n, err := c.Netlist()
		if err != nil {
			log.Fatal(err)
		}
		opt := core.DefaultOptions()
		opt.Layout.TimeLimit = 120 * time.Second
		res, err := core.Synthesize(n, opt)
		if err != nil {
			log.Fatalf("%s: %v", c.ID, err)
		}
		m := res.Metrics()
		fmt.Printf("%6d %6d %8d %6.1f x %-6.1f %10.1f %8d %10v\n",
			cfg.nIP, m.Units, cfg.groups, m.WidthMM, m.HeightMM,
			m.FlowMM, m.CtrlInlets, m.Runtime.Round(time.Millisecond))
	}
	fmt.Println("\ncontrol inlets grow logarithmically with the channel count,")
	fmt.Println("the property that makes large-scale designs addressable (Section 2.2).")
}

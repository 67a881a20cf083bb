// Command hlstats renders a text dashboard from a metrics dump written by
// hlmicro/hlshard/hlchaos -metrics-json. The dump is pure data (virtual-time
// counters, gauges, and latency histograms), so the dashboard is a pure
// function of the file — diffing two renders diffs two runs.
//
// Usage:
//
//	hlstats [-filter substr] [-csv] FILE
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hyperloop/internal/metrics"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
)

var (
	filter = flag.String("filter", "", "only show series whose subsystem/name/label contains this substring")
	csv    = flag.Bool("csv", false, "emit tables as CSV")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hlstats [-filter substr] [-csv] FILE")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dump, err := metrics.ParseJSON(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", flag.Arg(0), err)
		os.Exit(1)
	}
	render(dump)
}

func keep(subsystem, name, label string) bool {
	if *filter == "" {
		return true
	}
	return strings.Contains(subsystem+"/"+name+"/"+label, *filter)
}

func render(d metrics.JSONDump) {
	fmt.Printf("=== metrics dump: sampled at %v virtual ===\n", sim.Time(d.SampledAtNs))

	if rows := counters(d); rows != nil {
		fmt.Println("--- counters ---")
		printTable(rows)
	}
	if rows := gauges(d); rows != nil {
		fmt.Println("--- gauges ---")
		printTable(rows)
	}
	if rows := hists(d); rows != nil {
		fmt.Println("--- histograms (virtual-time latencies) ---")
		printTable(rows)
	}
}

func counters(d metrics.JSONDump) *stats.Table {
	t := stats.NewTable("series", "label", "value", "rate/s")
	n := 0
	for _, c := range d.Counters {
		if !keep(c.Subsystem, c.Name, c.Label) {
			continue
		}
		n++
		rate := "-"
		if c.Rate != 0 {
			rate = fmt.Sprintf("%.1f", c.Rate)
		}
		t.AddRow(c.Subsystem+"/"+c.Name, c.Label, fmt.Sprintf("%.0f", c.Value), rate)
	}
	if n == 0 {
		return nil
	}
	return t
}

func gauges(d metrics.JSONDump) *stats.Table {
	t := stats.NewTable("series", "label", "value")
	n := 0
	for _, g := range d.Gauges {
		if !keep(g.Subsystem, g.Name, g.Label) {
			continue
		}
		n++
		t.AddRow(g.Subsystem+"/"+g.Name, g.Label, fmt.Sprintf("%g", g.Value))
	}
	if n == 0 {
		return nil
	}
	return t
}

func hists(d metrics.JSONDump) *stats.Table {
	t := stats.NewTable("series", "label", "count", "mean", "p50", "p99", "max")
	q := func(h metrics.JSONHist, p string) string {
		v, ok := h.Quantiles[p]
		if !ok {
			return "-"
		}
		return us(v)
	}
	n := 0
	for _, h := range d.Histograms {
		if !keep(h.Subsystem, h.Name, h.Label) {
			continue
		}
		n++
		t.AddRow(h.Subsystem+"/"+h.Name, h.Label, fmt.Sprint(h.Count),
			us(h.MeanNs), q(h, "50"), q(h, "99"), us(h.MaxNs))
	}
	if n == 0 {
		return nil
	}
	return t
}

func us(ns int64) string { return fmt.Sprintf("%.1fus", float64(ns)/1000) }

func printTable(t *stats.Table) {
	if *csv {
		fmt.Print(t.CSV())
		return
	}
	fmt.Println(t)
}

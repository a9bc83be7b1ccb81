// Command hdovbench regenerates the tables and figures of the paper's
// evaluation section (§5). Each experiment is addressed by its paper
// label; -list shows them all.
//
// Usage:
//
//	hdovbench -list
//	hdovbench -exp table2
//	hdovbench -exp fig7,fig8a,fig8b
//	hdovbench -exp all -quick
//	hdovbench -quick -clients 8
//	hdovbench -quick -guard BENCH_baseline.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hdovbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag  = fs.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		expAlias = fs.String("experiment", "", "alias for -exp")
		list     = fs.Bool("list", false, "list experiments and exit")
		quick    = fs.Bool("quick", false, "use the small smoke-test parameter set")
		queries  = fs.Int("queries", 0, "override the visibility-query count")
		frames   = fs.Int("frames", 0, "override the walkthrough frame count")
		blocks   = fs.Int("blocks", 0, "override the city size (blocks per side)")
		gridFlag = fs.Int("grid", 0, "override the viewing-cell grid (cells per side)")
		seed     = fs.Int64("seed", 0, "override the random seed")
		images   = fs.String("images", "", "directory for Figure 11 PGM renderings")
		clients  = fs.Int("clients", 0, "serve mode: run N concurrent query sessions and report aggregate throughput")
		cache    = fs.Int("cache", 1<<16, "serve mode: shared buffer pool size in pages")
		guard    = fs.String("guard", "", "compare fresh bench metrics against a committed baseline file; exit 1 on >25% regression")
		writeBas = fs.String("writebaseline", "", "measure and write the baseline file, then exit")
		writeWC  = fs.String("writewalkcoherence", "", "measure and write the walkcoherence reference file, then exit")
		writeVC  = fs.String("writevpagecodec", "", "measure and write the vpagecodec reference file, then exit")
		guardVC  = fs.String("guardvpagecodec", "", "compare fresh vpagecodec metrics against a committed reference file; exit 1 on >25% regression")
		writeOV  = fs.String("writeoverload", "", "measure and write the overload reference file, then exit")
		guardOV  = fs.String("guardoverload", "", "compare fresh overload metrics against a committed reference file; exit 1 on a broken resilience invariant or >50% latency regression")
		writeDU  = fs.String("writedynupdate", "", "measure and write the dynupdate reference file, then exit")
		guardDU  = fs.String("guarddynupdate", "", "compare fresh dynupdate metrics against a committed reference file; exit 1 on a broken locality gate or >25% drift")
		writeHW  = fs.String("writehwcalib", "", "calibrate the file backend, measure, and write the hwcalib reference file, then exit")
		guardHW  = fs.String("guardhwcalib", "", "re-run the file-backend calibration and check the wall-clock gates against a committed reference file; exit 1 on a missed gate")
		benchfmt = fs.Bool("benchfmt", false, "with a write*/guard* flag: also print the metrics as Go benchmark lines (benchstat-compatible)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *expAlias != "" {
		*expFlag = *expAlias
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	p := bench.Default()
	if *quick {
		p = bench.Quick()
	}
	if *queries > 0 {
		p.Queries = *queries
	}
	if *frames > 0 {
		p.Frames = *frames
	}
	if *blocks > 0 {
		p.CityBlocks = *blocks
	}
	if *gridFlag > 0 {
		p.GridCells = *gridFlag
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *images != "" {
		p.ImageDir = *images
	}

	if *writeBas != "" {
		b, err := bench.CollectBaseline(p)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		if err := bench.WriteBaseline(*writeBas, b); err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "baseline written to %s (workload %s)\n", *writeBas, b.Workload)
		if *benchfmt {
			bench.WriteBenchHeader(stdout)
			bench.BenchFmtBaseline(stdout, b, p.ScalQueries)
		}
		return 0
	}

	if *writeWC != "" {
		wc, err := bench.CollectWalkCoherence(p)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		if err := bench.WriteWalkCoherence(*writeWC, wc); err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "walkcoherence reference written to %s (workload %s)\n", *writeWC, wc.Workload)
		if *benchfmt {
			bench.WriteBenchHeader(stdout)
			bench.BenchFmtWalkCoherence(stdout, wc)
		}
		return 0
	}

	if *writeVC != "" {
		vc, err := bench.CollectVPageCodec(p)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		if err := bench.WriteVPageCodec(*writeVC, vc); err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "vpagecodec reference written to %s (workload %s)\n", *writeVC, vc.Workload)
		if *benchfmt {
			bench.WriteBenchHeader(stdout)
			bench.BenchFmtVPageCodec(stdout, vc, p.ScalQueries)
		}
		return 0
	}

	if *writeOV != "" {
		ov, err := bench.CollectOverload(p)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		if err := bench.WriteOverload(*writeOV, ov); err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "overload reference written to %s (workload %s)\n", *writeOV, ov.Workload)
		return 0
	}

	if *writeDU != "" {
		du, err := bench.CollectDynUpdate(p)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		if err := bench.WriteDynUpdate(*writeDU, du); err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "dynupdate reference written to %s (workload %s)\n", *writeDU, du.Workload)
		return 0
	}

	if *writeHW != "" {
		hc, err := bench.CollectHWCalib(p)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		if err := bench.WriteHWCalib(*writeHW, hc); err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "hwcalib reference written to %s (workload %s, fitted seek %.3fµs, transfer %.3fµs/page)\n",
			*writeHW, hc.Workload, hc.FittedSeekMicros, hc.FittedTransferMicros)
		if *benchfmt {
			bench.WriteBenchHeader(stdout)
			bench.BenchFmtHWCalib(stdout, hc, p.ScalQueries)
		}
		return 0
	}

	if *guardHW != "" {
		ref, err := bench.LoadHWCalib(*guardHW)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 2
		}
		cur, err := bench.CollectHWCalib(p)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		if bad := bench.CompareHWCalib(ref, cur); len(bad) > 0 {
			for _, line := range bad {
				fmt.Fprintf(stderr, "hdovbench: regression: %s\n", line)
			}
			return 1
		}
		fmt.Fprintf(stdout, "hwcalib guard passed (workload %s, codec %.2fx, warm %.2fx measured speedup)\n",
			ref.Workload, cur.CodecSpeedup, cur.WarmSpeedup)
		if *benchfmt {
			bench.WriteBenchHeader(stdout)
			bench.BenchFmtHWCalib(stdout, cur, p.ScalQueries)
		}
		return 0
	}

	if *guardDU != "" {
		ref, err := bench.LoadDynUpdate(*guardDU)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 2
		}
		cur, err := bench.CollectDynUpdate(p)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		if bad := bench.CompareDynUpdate(ref, cur, 0.25); len(bad) > 0 {
			for _, line := range bad {
				fmt.Fprintf(stderr, "hdovbench: regression: %s\n", line)
			}
			return 1
		}
		fmt.Fprintf(stdout, "dynupdate guard passed (workload %s)\n", ref.Workload)
		return 0
	}

	if *guardOV != "" {
		ref, err := bench.LoadOverload(*guardOV)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 2
		}
		cur, err := bench.CollectOverload(p)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		if bad := bench.CompareOverload(ref, cur, 0.5); len(bad) > 0 {
			for _, line := range bad {
				fmt.Fprintf(stderr, "hdovbench: regression: %s\n", line)
			}
			return 1
		}
		fmt.Fprintf(stdout, "overload guard passed (workload %s)\n", ref.Workload)
		return 0
	}

	if *guardVC != "" {
		ref, err := bench.LoadVPageCodec(*guardVC)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 2
		}
		cur, err := bench.CollectVPageCodec(p)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		if bad := bench.CompareVPageCodec(ref, cur, 0.25); len(bad) > 0 {
			for _, line := range bad {
				fmt.Fprintf(stderr, "hdovbench: regression: %s\n", line)
			}
			return 1
		}
		fmt.Fprintf(stdout, "vpagecodec guard passed (workload %s, %d schemes)\n",
			ref.Workload, len(ref.Schemes))
		if *benchfmt {
			bench.WriteBenchHeader(stdout)
			bench.BenchFmtVPageCodec(stdout, cur, p.ScalQueries)
		}
		return 0
	}

	if *guard != "" {
		ref, err := bench.LoadBaseline(*guard)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 2
		}
		cur, err := bench.CollectBaseline(p)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: %v\n", err)
			return 1
		}
		if bad := bench.CompareBaseline(ref, cur, 0.25); len(bad) > 0 {
			for _, line := range bad {
				fmt.Fprintf(stderr, "hdovbench: regression: %s\n", line)
			}
			return 1
		}
		fmt.Fprintf(stdout, "baseline guard passed (workload %s, %d schemes)\n",
			ref.Workload, len(ref.Schemes))
		if *benchfmt {
			bench.WriteBenchHeader(stdout)
			bench.BenchFmtBaseline(stdout, cur, p.ScalQueries)
		}
		return 0
	}

	if *clients > 0 {
		cfg := bench.DefaultServeConfig(p)
		cfg.Clients = *clients
		cfg.CachePages = *cache
		r, err := bench.RunServeClients(p, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "hdovbench: serve: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout,
			"clients=%d queries=%d elapsed=%v throughput=%.0f q/s pool_hits=%d pool_misses=%d\n",
			r.Clients, r.Queries, r.Elapsed.Round(time.Millisecond),
			r.Throughput, r.PoolHits, r.PoolMisses)
		return 0
	}

	var ids []string
	if *expFlag == "all" {
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*expFlag, ",")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := bench.Lookup(id)
		if !ok {
			known := make([]string, 0, len(bench.All()))
			for _, k := range bench.All() {
				known = append(known, k.ID)
			}
			fmt.Fprintf(stderr, "hdovbench: unknown experiment %q; registered: %s\n",
				id, strings.Join(known, ", "))
			return 2
		}
		fmt.Fprintf(stdout, "==== %s — %s ====\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(stdout, p); err != nil {
			fmt.Fprintf(stderr, "hdovbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// Command benchrunner regenerates every experiment in internal/experiments
// (E1-E10) and prints the result series as text tables — the repository's
// equivalent of the paper's evaluation section. Run with -quick for a
// smaller parameterization.
//
// Perf modes (skip the experiment suite): -perfout BENCH_PR2.json runs
// the query-path micro-benchmarks and writes a trajectory point;
// -compare BENCH_PR2.json -tolerance 0.25 additionally gates them
// against a committed baseline, exiting nonzero when any tracked bench
// regresses beyond the tolerance — the CI bench-regression gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/perfbench"
)

func main() {
	quick := flag.Bool("quick", false, "smaller parameterizations")
	seed := flag.Int64("seed", 42, "experiment seed")
	only := flag.String("only", "", "run only this experiment id (e.g. E3)")
	perfout := flag.String("perfout", "", "run the query-path micro-benchmarks and write the trajectory JSON (e.g. BENCH_PR2.json); skips the experiment suite")
	compare := flag.String("compare", "", "run the micro-benchmarks and gate them against a committed baseline JSON; exits nonzero when any tracked bench regresses beyond -tolerance")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional slowdown per bench in -compare mode (0.25 = 25%)")
	flag.Parse()

	if *perfout != "" || *compare != "" {
		if err := runPerf(*perfout, *compare, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*quick, *seed, *only); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// runPerf runs the query-path micro-benchmarks, optionally writes the
// trajectory point, and optionally gates against a committed baseline.
func runPerf(outPath, comparePath string, tolerance float64) error {
	rep := perfbench.RunAll()
	for _, r := range rep.Results {
		fmt.Printf("%-40s %12.0f ns/op %8d B/op %6d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Printf("catalog speedup (scan-per-query / cached):   %.1fx\n", rep.CatalogSpeedup)
	fmt.Printf("order-by speedup (full sort / top-k):        %.1fx\n", rep.OrderBySpeedup)
	fmt.Printf("index-order speedup (full sort / idx order): %.1fx\n", rep.IndexOrderSpeedup)
	fmt.Printf("warm-start speedup (cold rebuild / load):    %.1fx\n", rep.WarmStartSpeedup)
	fmt.Printf("group-commit speedup (solo / 8 committers):  %.1fx\n", rep.GroupCommitSpeedup)
	fmt.Printf("indexed-reopen speedup (rebuild / idx load): %.1fx\n", rep.IndexedReopenSpeedup)
	fmt.Printf("checkpoint commit overhead (in-flight ckpt):  %.2fx\n", rep.CheckpointCommitOverhead)
	if sl := rep.ServerLoad; sl.Served > 0 {
		fmt.Printf("server load (%d conns, %.1fs): %.0f ops/sec, p50 %.2fms, p99 %.2fms, shed %d\n",
			sl.Conns, sl.Duration, sl.OpsPerSec, sl.P50Ms, sl.P99Ms, sl.Shed)
	}
	if ml := rep.MixedLoad; len(ml.Points) > 0 {
		for _, p := range ml.Points {
			fmt.Printf("mixed read/write (%dR x %dW, %.1fs): readers %.0f ops/sec, writers %.0f ops/sec\n",
				p.Readers, ml.Writers, ml.DurationSec, p.ReaderOpsPerSec, p.WriterOpsPerSec)
		}
		fmt.Printf("mixed-read scaling (8R / 1R aggregate, %d cores): %.2fx\n", ml.Cores, ml.Scaling8x)
		fmt.Printf("mvcc read boost (snapshot / locked, 8R engine):  %.1fx\n", ml.MVCCReadBoost)
	}
	if ig := rep.Ingest; ig.BulkRowsPerSec > 0 {
		fmt.Printf("bulk ingest (%d rows, %d batches): %.0f rows/sec; row-at-a-time %.0f rows/sec (%.1fx)\n",
			ig.Rows, ig.Batches, ig.BulkRowsPerSec, ig.BaselineRowsPerSec, ig.Speedup)
	}
	if sh := rep.ShardLoad; len(sh.Points) > 0 {
		for _, p := range sh.Points {
			fmt.Printf("sharded sweep (%d shards, %dS, %d rows): sharded %.0f ops/sec vs single %.0f ops/sec (%.2fx)\n",
				sh.Shards, p.Sessions, sh.Rows, p.ShardedOpsPerSec, p.SingleOpsPerSec, p.Speedup)
		}
		fmt.Printf("shard read speedup (8S, %d cores): %.2fx\n", sh.Cores, rep.ShardReadSpeedup)
	}
	if outPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if comparePath == "" {
		return nil
	}
	buf, err := os.ReadFile(comparePath)
	if err != nil {
		return err
	}
	var baseline perfbench.Report
	if err := json.Unmarshal(buf, &baseline); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", comparePath, err)
	}
	regs := perfbench.Compare(baseline, rep, tolerance)
	if len(regs) == 0 {
		fmt.Printf("bench gate: all tracked benches within %.0f%% of %s\n", tolerance*100, comparePath)
		return nil
	}
	for _, g := range regs {
		fmt.Fprintf(os.Stderr, "REGRESSION %-40s %12.0f -> %12.0f ns/op (%.2fx, tolerance %.2fx)\n",
			g.Name, g.BaselineNs, g.CurrentNs, g.Ratio, 1+tolerance)
	}
	return fmt.Errorf("%d tracked bench(es) regressed beyond %.0f%% of %s", len(regs), tolerance*100, comparePath)
}

func run(quick bool, seed int64, only string) error {
	e1Sizes := []int{200, 1000, 4000}
	e2Sizes := []int{200, 1000, 4000}
	e6Workers := []int{1, 2, 4, 8, 16}
	e6Docs := 2000
	e8Editors := []int{1, 2, 4, 8, 16, 32}
	e8Ops := 200
	e10Docs := 2000
	if quick {
		e1Sizes = []int{100, 400}
		e2Sizes = []int{100, 400}
		e6Workers = []int{1, 2, 4}
		e6Docs = 300
		e8Editors = []int{1, 4, 8}
		e8Ops = 50
		e10Docs = 300
	}

	type experiment struct {
		id  string
		run func() (*experiments.Series, error)
	}
	suite := []experiment{
		{"E1", func() (*experiments.Series, error) { _, s, err := experiments.RunE1(e1Sizes, seed); return s, err }},
		{"E1b", func() (*experiments.Series, error) { return experiments.E1RankingAblation(seed) }},
		{"E2", func() (*experiments.Series, error) { _, s, err := experiments.RunE2(e2Sizes, seed); return s, err }},
		{"E3", func() (*experiments.Series, error) {
			_, s, err := experiments.RunE3([]int{0, 10, 25, 50, 100, 200, 400}, 0.1, seed)
			return s, err
		}},
		{"E4", func() (*experiments.Series, error) { _, s, err := experiments.RunE4(150, seed); return s, err }},
		{"E5", func() (*experiments.Series, error) {
			_, s, err := experiments.RunE5([]int{1, 2, 3, 5, 10}, seed)
			return s, err
		}},
		{"E6", func() (*experiments.Series, error) {
			_, s, err := experiments.RunE6(e6Workers, e6Docs, seed)
			return s, err
		}},
		{"E7", func() (*experiments.Series, error) {
			_, s, err := experiments.RunE7([]float64{0.01, 0.02, 0.05, 0.1, 0.2}, 30, seed)
			return s, err
		}},
		{"E8", func() (*experiments.Series, error) {
			_, s, err := experiments.RunE8(e8Editors, e8Ops, seed)
			return s, err
		}},
		{"E8b", func() (*experiments.Series, error) {
			sizes := []int{1000, 5000, 20000}
			if quick {
				sizes = []int{500, 2000}
			}
			return experiments.E8IndexAblation(sizes)
		}},
		{"E9", func() (*experiments.Series, error) {
			_, s, err := experiments.RunE9([]float64{0.01, 0.05, 0.1, 0.2}, seed)
			return s, err
		}},
		{"E10", func() (*experiments.Series, error) { _, s, err := experiments.RunE10(e10Docs, seed); return s, err }},
	}

	for _, e := range suite {
		if only != "" && e.id != only {
			continue
		}
		s, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Println(s.String())
	}
	return nil
}

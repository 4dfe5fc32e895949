// Command wirebench is the repository's end-to-end benchmark. It builds
// one workload's dataset from a seed, serves it through an in-process
// unidbd server (server.New + Serve on loopback TCP), drives it with a
// closed loop of two server.Client connections for a fixed time, checks
// every answer, and prints its metrics. With --trace 1 it also replays
// sampled requests in-process as span trees and prints per-layer metrics
// and a self-time table (see trace.go).
//
//	bash wirebench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}},
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) that BENCHMARK.json names. Every other metric, the
// reproducibility record and the self-time table are printed before it
// as lines starting with "#" or "metric".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every workload's city count; the self-test runs
	// tiny sizes with it.
	scale float64
	out   string // data directories and span files go here
}

// setupReps is how many times a run sets the system up; setup_s is the
// median and the last one serves.
const setupReps = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	p := params{scale: 1, out: ".bench_build"}
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload: interactive, scan_large, write_churn or sharded_mixed")
	flag.Int64Var(&p.seed, "seed", 1, "seed of the corpus and of every request stream")
	flag.Float64Var(&p.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 replays sampled requests and reports per-layer metrics")
	flag.Parse()
	p.trace = trace == 1
	res, err := run(p, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// run executes one benchmark run and returns the result line. Its text
// report goes to w.
func run(p params, w io.Writer) (*result, error) {
	sp, ok := specByName(p.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
	if p.seconds <= 0 {
		return nil, fmt.Errorf("need --seconds > 0")
	}
	work := filepath.Join(p.out, fmt.Sprintf("run-%d-%s-%d", os.Getpid(), sp.name, p.seed))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{p: p, sp: sp, work: work, w: w, bad: failures{}}
	m, err := b.run()
	if err != nil {
		return nil, err
	}
	names := endToEnd
	if p.trace {
		names = perLayer
	}
	// A failed read is a wrong answer as well as a failure: only writes
	// may be refused (conflict, overload, deadline) in a correct run.
	failed := b.bad.count(failedPrefix)
	res := &result{Correct: b.bad.count("") == b.bad.count(failedPrefix+classWrite), Attempted: b.attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range names {
		v, ok := m.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	m.print(w)
	b.bad.print(w)
	return res, nil
}

// printRecord prints what a reader needs to reproduce the run.
func (b *bench) printRecord() {
	fmt.Fprintf(b.w, "# workload %s seed %d seconds %g trace %v\n", b.sp.name, b.p.seed, b.p.seconds, b.p.trace)
	fmt.Fprintf(b.w, "# why: %s\n", b.sp.why)
	fmt.Fprintf(b.w, "# cpus %d gomaxprocs %d go %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(b.w, "# pool_frames %d cities %d rows %d heap_pages %d shards %d disk %v clients %d\n",
		poolFrames, len(b.ds.cities), b.dep.rows, b.dep.pages, b.sp.shards, b.sp.disk, clients)
}

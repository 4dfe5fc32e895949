package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// The self-test runs every workload at a tiny size, traced and untraced,
// with every output check, and holds the emitted metric names and units
// to BENCHMARK.json, so that no metric can be dropped silently.

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if specs[i].name != w.Name || specs[i].why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), code %q (%s)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(what string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, code %d", what, len(file), len(code))
			return
		}
		for i := range file {
			if file[i] != code[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, code %v", what, i, file[i], code[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// tinyRun runs one workload at a tiny size.
func tinyRun(t *testing.T, workload string, trace bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(params{workload: workload, seed: 7, seconds: 0.8, trace: trace,
		scale: 0.03, out: t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", workload, trace, err, out.String())
	}
	return res, out.String()
}

func TestEveryMetricEmitted(t *testing.T) {
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			res, out := tinyRun(t, sp.name, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", sp.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a number in %s", sp.name, trace, d.name, m, d.unit)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", sp.name, trace, res.Attempted, res.Failed)
			}
			for _, line := range []string{"# why: " + sp.why, "# cpus ", "# pool_frames 512 "} {
				if !strings.Contains(out, line) {
					t.Errorf("%s trace=%v: output lacks %q", sp.name, trace, line)
				}
			}
			if trace && !strings.Contains(out, "# self time per layer") {
				t.Errorf("%s: traced output lacks the self-time table", sp.name)
			}
		}
	}
}

// TestAskMonthRangeAfterBulkLoad asks for a March..September average,
// the ask the core tests prove on a table built by a UQL program, over a
// table loaded through ExtractAll and BulkLoadRows. It fails while the
// reformulator takes its month order from the table's row order: the
// bulk path stores rows sorted by qualifier, so the range covers March,
// May, November, October and September. The benchmark's asks name one
// month until this passes.
func TestAskMonthRangeAfterBulkLoad(t *testing.T) {
	ds := newDataset(7, 12)
	dep, err := buildSingle(ds, "")
	if err != nil {
		t.Fatal(err)
	}
	defer dep.close()
	for _, c := range ds.cities {
		q := fmt.Sprintf("average March September temperature %s %s", c.Name, c.State)
		ans, err := dep.sys.AskGuided(context.Background(), q, 3)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, ok := core.AverageFromRows(ans.Answer)
		if want := c.AvgTemp(2, 8); !ok || math.Abs(got-want) > 1e-6 {
			t.Errorf("%s: got %v, want %v", q, got, want)
		}
	}
}

// TestAnswersCorrect holds every workload to its output checks: truth
// answers, full-scan references, sharded byte equality and the
// durability audit.
func TestAnswersCorrect(t *testing.T) {
	for _, sp := range specs {
		res, out := tinyRun(t, sp.name, false)
		if !res.Correct {
			var failed []string
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "# FAILED") {
					failed = append(failed, line)
				}
			}
			t.Errorf("%s: wrong answers:\n%s", sp.name, strings.Join(failed, "\n"))
		}
	}
}

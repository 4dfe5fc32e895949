package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/rdbms"
	"repro/internal/search"
	"repro/internal/server"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics BENCHMARK.json gates: the ones every workload
// measures, never 0, steady from run to run on a shared 2-core host. The
// last line of a --trace 0 run holds exactly these. The tail latency
// (p99_ms) swings too much between runs there to gate; it is printed with
// the per-class latencies and, where they apply, the write and disk
// metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MiB"},
}

// perLayer are the per-layer metrics every workload measures. The last
// line of a --trace 1 run holds exactly these.
var perLayer = []metricDef{
	{"server.wire_us", "us"},
	{"server.resp_bytes", "bytes"},
	{"server.shed_ratio", "ratio"},
	{"core.view_open_us", "us"},
	{"core.catalog_us", "us"},
	{"core.extract_s", "s"},
	{"core.bulkload_s", "s"},
	{"core.allocs_per_op", "count"},
	{"search.build_ms", "ms"},
	{"rdbms.parse_us", "us"},
	{"rdbms.exec_us", "us"},
	{"rdbms.scan_ns_per_row", "ns"},
	{"rdbms.decode_ns_per_row", "ns"},
	{"rdbms.decode_allocs_per_row", "count"},
	{"rdbms.buffer.hit_rate", "ratio"},
	{"rdbms.buffer.pins_per_op", "count"},
	{"rdbms.buffer.misses_per_op", "count"},
	{"rdbms.buffer.evictions_per_op", "count"},
	{"rdbms.buffer.scan_bypass_per_op", "count"},
	{"rdbms.lock.acquisitions_per_op", "count"},
	{"rdbms.lock.deadlocks", "count"},
	{"process.gc_cpu_fraction", "ratio"},
	{"process.alloc_bytes_per_op", "bytes"},
	{"trace.overhead_pct", "%"},
}

// metricSet holds every metric of a run in the order it was measured.
type metricSet struct {
	values map[string]float64
	units  map[string]string
	notes  map[string]string
	order  []string
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]float64{}, units: map[string]string{}, notes: map[string]string{}}
}

// add records a metric; NaN means the workload has nothing to measure
// for it, and it is printed as n/a.
func (m *metricSet) add(name, unit string, v float64, note string) {
	if _, ok := m.units[name]; !ok {
		m.order = append(m.order, name)
	}
	m.units[name] = unit
	if note != "" {
		m.notes[name] = note
	}
	if !math.IsNaN(v) {
		m.values[name] = v
	}
}

func (m *metricSet) print(w io.Writer) {
	for _, n := range m.order {
		v, ok := m.values[n]
		val := "n/a"
		if ok {
			val = fmt.Sprintf("%.6g", v)
		}
		line := fmt.Sprintf("metric %-36s %14s %s", n, val, m.units[n])
		if note := m.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// bench is one run in progress.
type bench struct {
	p    params
	sp   spec
	work string
	w    io.Writer

	ds     *dataset
	dep    *deployment
	refDep *deployment // sharded_mixed: single-engine reference
	srv    *serving
	ref    *reference
	ch     *churn

	attempted int
	bad       failures
}

func (b *bench) tally(p *phase) {
	b.attempted += p.attempted()
	for _, c := range p.conns {
		b.bad.merge(c.bad)
	}
}

func (b *bench) wrongf(kind, format string, args ...any) {
	b.bad.add(kind, "seed %d: "+format, append([]any{b.p.seed}, args...)...)
}

// teardown stops whatever is still running.
func (b *bench) teardown() {
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
	for _, d := range []*deployment{b.dep, b.refDep} {
		if d != nil {
			d.close()
		}
	}
}

func (b *bench) run() (*metricSet, error) {
	defer b.teardown()
	m := newMetricSet()
	cities := max(int(float64(b.sp.cities)*b.p.scale+0.5), 24)
	b.ds = newDataset(b.p.seed, cities)

	setup, err := b.setup(m)
	if err != nil {
		return nil, err
	}
	b.printRecord()
	before := b.engineCounters()
	if b.sp.name == "write_churn" {
		b.ch = newChurn()
	}
	gens := make([]*generator, clients)
	for i := range gens {
		gens[i] = newGenerator(b.sp, b.ds, b.ref, b.dep.rows, b.ch, b.p.seed, i)
	}
	drv, err := newClosedLoop(b.srv.addr, gens, b.p.seed)
	if err != nil {
		return nil, err
	}
	defer drv.close()

	secs := time.Duration(b.p.seconds * float64(time.Second))
	b.tally(drv.run(min(2*time.Second, secs/5), nil)) // warm-up, unmeasured
	plainDur := secs
	if b.p.trace {
		plainDur = secs / 3
	}
	proc, cpu := readProcess(), cpuTime()
	walBefore := b.walSyncs()
	plain := drv.run(plainDur, nil)
	procDelta, cpuDelta := readProcess().minus(proc), cpuTime()-cpu
	walDelta := b.walSyncs() - walBefore
	b.tally(plain)

	var tr *tracer
	var traced *phase
	if b.p.trace {
		tr = newTracer(b.dep, b.sp.sample)
		traced = drv.run(secs-plainDur, tr)
		b.tally(traced)
	}

	b.finalChecks(drv)
	if b.refDep != nil {
		b.refDep.close() // the reference is not part of the live heap
		b.refDep = nil
	}
	drv.close()
	_, shed, served := b.srv.srv.Stats()
	b.srv.stop()
	b.srv = nil

	b.endToEndMetrics(m, setup, plain)
	plainOps, plainP50 := len(plain.latencies()), p50(plain.latencies())
	m.add("cpu_ms_per_op", "ms", ms(cpuDelta)/float64(plainOps), "process CPU time, client and server")
	writes := len(plain.conns[0].lat[classWrite])
	plain = nil // the live heap is the program's, not the latency record's
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	m.add("live_heap_mb", "MiB", float64(live[0].Value.Uint64())/(1<<20), "marked live by a GC at the end of the run")

	if b.p.trace {
		if err := b.probes(m); err != nil {
			return nil, err
		}
	}
	after := b.engineCounters()
	if b.sp.disk {
		if err := b.reopen(m); err != nil {
			return nil, err
		}
	}
	if !b.p.trace {
		return m, nil
	}

	ops := float64(plainOps)
	m.add("server.shed_ratio", "ratio", float64(shed)/float64(max(shed+served, 1)), "")
	m.add("process.alloc_bytes_per_op", "bytes", procDelta.allocBytes/ops, "")
	m.add("process.gc_cpu_fraction", "ratio", procDelta.gcCPU/procDelta.totalCPU, "")
	m.add("rdbms.lock.deadlocks", "count", float64(after.deadlocks-before.deadlocks), "")
	m.add("rdbms.checkpoints", "count", float64(after.checkpoints-before.checkpoints), "")
	if b.sp.name == "write_churn" {
		m.add("rdbms.wal.syncs_per_write", "count", float64(walDelta)/float64(max(writes, 1)), "")
		m.add("core.correct_deadlock_retries", "count", float64(after.retries-before.retries), "")
	}
	b.layerMetrics(m, tr, plainP50, traced)
	t := tr.tree()
	t.writeTable(b.w, b.sp.name)
	path := filepath.Join(b.p.out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.sp.name, b.p.seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.w, "# spans: %d in %s\n", len(tr.spans), path)
	return m, nil
}

// setup builds and serves the system setupReps times; the last one
// stays up. It returns the median set-up time in seconds.
func (b *bench) setup(m *metricSet) (float64, error) {
	var setups, extracts, bulks, builds []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		dep, err := build(b.sp, b.ds, filepath.Join(b.work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		srv, err := serve(dep.backend)
		if err != nil {
			dep.close()
			return 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		switch {
		case dep.sys != nil:
			extracts = append(extracts, dep.extract.Seconds())
			bulks = append(bulks, dep.bulkload.Seconds())
		case b.p.trace:
			// BulkIngest is one call. Its first step is ExtractAll on shard
			// 0 as wide as the shard count; that is timed again here, out of
			// setup_s, and the rest of the ingest (routing rows to owners and
			// the per-shard BulkLoadRows in parallel) counts as the load.
			t1 := time.Now()
			if _, _, err := dep.ss.Shard(0).ExtractAll(context.Background(), "city", dep.ss.Shards()); err != nil {
				srv.stop()
				dep.close()
				return 0, fmt.Errorf("setup: %w", err)
			}
			extract := time.Since(t1)
			extracts = append(extracts, extract.Seconds())
			bulks = append(bulks, (dep.ingest - extract).Seconds())
		}
		if b.p.trace {
			t1 := time.Now()
			search.BuildIndex(b.ds.corpus)
			builds = append(builds, float64(time.Since(t1).Nanoseconds())/1e6)
		}
		if i < setupReps-1 {
			srv.stop()
			dep.close()
			continue
		}
		b.dep, b.srv = dep, srv
	}
	refSys := b.dep.sys
	if b.dep.ss != nil {
		// the single-engine reference the sharded answers must equal
		ref, err := buildSingle(b.ds, "")
		if err != nil {
			return 0, err
		}
		b.refDep = ref
		refSys = ref.sys
	}
	var err error
	if b.ref, err = buildReference(refSys, b.dep.ss != nil); err != nil {
		return 0, err
	}
	if b.ref.rows != b.dep.rows {
		b.wrongf("reference", "full scan sees %d rows, bulk load reported %d", b.ref.rows, b.dep.rows)
	}
	m.add("core.extract_s", "s", median(extracts), "ExtractAll")
	m.add("core.bulkload_s", "s", median(bulks), "BulkLoadRows, or the rest of shard BulkIngest")
	if b.p.trace {
		m.add("search.build_ms", "ms", median(builds), "")
	}
	return median(setups), nil
}

type engineCounters struct{ deadlocks, checkpoints, retries int64 }

func (b *bench) engineCounters() engineCounters {
	var c engineCounters
	for _, e := range b.dep.engines() {
		c.deadlocks += e.DB.LockManager().Deadlocks()
		c.checkpoints += e.DB.Checkpoints()
		c.retries += e.Stats.Counter("core.corrections.deadlock_retries")
	}
	return c
}

func (b *bench) walSyncs() int64 {
	var n int64
	for _, e := range b.dep.engines() {
		n += e.DB.WALSyncs()
	}
	return n
}

// finalChecks runs the end-of-load output checks over the wire.
func (b *bench) finalChecks(drv *closedLoop) {
	ctx := context.Background()
	cli := drv.conns[0]
	if b.ch != nil {
		want := b.dep.rows + b.ch.net()
		rs, err := cli.SQL(ctx, "SELECT COUNT(*) FROM extracted")
		if err != nil {
			b.wrongf("final_count", "final COUNT(*): %v", err)
		} else if cerr := checkCount(rs, want); cerr != nil {
			b.wrongf("final_count", "final COUNT(*) after %d inserts and %d deletes: %v", len(b.ch.inserted), len(b.ch.deleted), cerr)
		}
	}
	if b.refDep != nil {
		b.checkShardEquality(cli)
	}
}

// shardSamples is the size of the query set compared byte for byte
// between the sharded system and the single-engine reference.
const shardSamples = 48

func (b *bench) checkShardEquality(cli *server.Client) {
	ctx := context.Background()
	refSrv, err := serve(b.refDep.sys)
	if err != nil {
		b.wrongf("shard_equality", "reference server: %v", err)
		return
	}
	defer refSrv.stop()
	refCli, err := server.Dial(refSrv.addr, 10*time.Second)
	if err != nil {
		b.wrongf("shard_equality", "reference client: %v", err)
		return
	}
	defer refCli.Close()
	g := newGenerator(b.sp, b.ds, b.ref, b.dep.rows, nil, b.p.seed, clients)
	for i := 0; i < shardSamples; i++ {
		o := g.next()
		var raw [2][]byte
		for j, c := range []*server.Client{cli, refCli} {
			req := o.req
			resp, err := c.Do(ctx, &req)
			if err != nil {
				b.wrongf("shard_equality", "sharded equality %s %q: %v", o.req.Op, o.req.Query+o.req.SQL, err)
				return
			}
			// The plan line names the access path, which differs by design
			// (a fan-out against a scan); the answer itself must not.
			resp.ID, resp.Elapsed = 0, 0
			if resp.Result != nil {
				resp.Result.Plan = ""
			}
			if resp.Guided != nil && resp.Guided.Answer != nil {
				resp.Guided.Answer.Plan = ""
			}
			raw[j], _ = json.Marshal(resp)
		}
		if string(raw[0]) != string(raw[1]) {
			b.wrongf("shard_equality", "sharded response differs from the single engine for %s %q:\n#   sharded %s\n#   single  %s",
				o.req.Op, o.req.Query+o.req.SQL, raw[0], raw[1])
			return
		}
	}
}

// reopen closes the disk-backed system cleanly, measures its space
// amplification, times core.New on the same directory, and audits what
// the reopened system holds.
func (b *bench) reopen(m *metricSet) error {
	sys, dir := b.dep.sys, b.dep.cfg.Dir
	live, err := liveRowBytes(sys)
	if err != nil {
		return err
	}
	if err := sys.Close(); err != nil {
		return fmt.Errorf("clean close: %w", err)
	}
	onDisk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	m.add("space_amp", "ratio", float64(onDisk)/float64(live), "")
	t0 := time.Now()
	re, err := core.New(b.dep.cfg)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	m.add("reopen_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6, "")
	defer re.Close()
	if b.p.trace {
		os := re.DB.LastOpenStats()
		m.add("rdbms.reopen_indexes_loaded", "count", float64(os.IndexesLoaded), "")
		m.add("rdbms.reopen_indexes_rebuilt", "count", float64(os.IndexesRebuilt), "")
	}
	b.audit(re)
	return nil
}

// audit checks the reopened system: the row count, and on write_churn
// every acked insert present, every acked delete absent, and every
// corrected fact at its last acked value.
func (b *bench) audit(sys *core.System) {
	ctx := context.Background()
	want := b.ref.rows
	if b.ch != nil {
		want += b.ch.net()
	}
	count := func(sql string) int {
		rs, err := sys.SQL(ctx, sql)
		if err != nil || len(rs.Rows) != 1 {
			b.wrongf("audit", "%q: %v", sql, err)
			return -1
		}
		return int(rs.Rows[0][0].I)
	}
	if n := count("SELECT COUNT(*) FROM extracted"); n != want {
		b.wrongf("audit", "after reopen COUNT(*) = %d, want %d", n, want)
	}
	if b.ch == nil {
		return
	}
	for n := range b.ch.inserted {
		q := fmt.Sprintf("SELECT COUNT(*) FROM extracted WHERE entity = '%s'", churnEntity(n))
		want := 1
		if b.ch.deleted[n] {
			want = 0
		}
		if got := count(q); got != want {
			b.wrongf("audit", "after reopen %s has %d rows, want %d", churnEntity(n), got, want)
		}
	}
	entities := make([]string, 0, len(b.ch.corrected))
	for e := range b.ch.corrected {
		entities = append(entities, e)
	}
	sort.Strings(entities)
	for _, e := range entities {
		v := b.ch.corrected[e]
		q := fmt.Sprintf("SELECT COUNT(*) FROM extracted WHERE entity = '%s' AND attribute = 'population' AND value = '%s'", e, v)
		if count(q) < 1 {
			b.wrongf("audit", "after reopen %s population lost its last acked correction %s", e, v)
		}
	}
}

// probes measures the per-row scan and decode costs on the first engine
// and, on disk, one checkpoint.
func (b *bench) probes(m *metricSet) error {
	sys := b.dep.engines()[0]
	var rows int
	var enc [][]byte
	var scans []float64
	for i := 0; i < 3; i++ {
		rows, enc = 0, enc[:0]
		snap := sys.DB.BeginSnapshot()
		t0 := time.Now()
		err := snap.Scan(core.TableName, func(rdbms.RID, rdbms.Tuple) bool { rows++; return true })
		scans = append(scans, float64(time.Since(t0).Nanoseconds()))
		if err == nil {
			err = snap.Scan(core.TableName, func(_ rdbms.RID, t rdbms.Tuple) bool {
				enc = append(enc, rdbms.EncodeTuple(t))
				return true
			})
		}
		snap.Close()
		if err != nil {
			return err
		}
	}
	m.add("rdbms.scan_ns_per_row", "ns", median(scans)/float64(rows), "Snap.Scan, no-op callback")
	var decodes []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for _, e := range enc {
			if _, err := rdbms.DecodeTuple(e); err != nil {
				return err
			}
		}
		decodes = append(decodes, float64(time.Since(t0).Nanoseconds()))
		runtime.ReadMemStats(&ms1)
	}
	m.add("rdbms.decode_ns_per_row", "ns", median(decodes)/float64(len(enc)), "")
	m.add("rdbms.decode_allocs_per_row", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(enc)), "")
	if b.sp.disk {
		t0 := time.Now()
		if err := sys.Checkpoint(); err != nil {
			return err
		}
		m.add("rdbms.checkpoint_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6, "one checkpoint after the load")
	}
	return nil
}

// --- end-to-end metrics -----------------------------------------------------

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// p50 is the nearest-rank median of ascending latencies.
func p50(lat []time.Duration) float64 {
	if len(lat) == 0 {
		return math.NaN()
	}
	return ms(lat[(len(lat)+1)/2-1])
}

// tail is the highest of p99, p95, p90, p75 and p50 that has at least 10
// samples beyond it, with a note naming the percentile and sample count.
func tail(lat []time.Duration) (float64, string) {
	n := len(lat)
	if n == 0 {
		return math.NaN(), ""
	}
	for _, q := range []int{99, 95, 90, 75, 50} {
		idx := (q*n+99)/100 - 1
		if n-1-idx >= 10 {
			return ms(lat[idx]), fmt.Sprintf("p%d of %d samples", q, n)
		}
	}
	return p50(lat), fmt.Sprintf("p50 of %d samples", n)
}

func (b *bench) endToEndMetrics(m *metricSet, setup float64, ph *phase) {
	all := ph.latencies()
	secs := ph.elapsed.Seconds()
	attempted, failed := ph.attempted(), 0
	for _, c := range ph.conns {
		failed += c.bad.count(failedPrefix)
	}
	m.add("setup_s", "s", setup, fmt.Sprintf("median of %d set-ups", setupReps))
	m.add("ops_per_s", "1/s", ph.throughput(), fmt.Sprintf("median of %d windows; overall %.6g", throughputWindows, float64(len(all))/secs))
	m.add("p50_ms", "ms", p50(all), fmt.Sprintf("%d samples", len(all)))
	v, note := tail(all)
	m.add("p99_ms", "ms", v, note)
	m.add("fail_ratio", "ratio", float64(failed)/float64(max(attempted, 1)), "")
	for _, c := range classes {
		lat := ph.latencies(c)
		m.add(c+"_p50_ms", "ms", p50(lat), fmt.Sprintf("%d samples", len(lat)))
	}
	if b.sp.name == "write_churn" {
		m.add("write_ops_per_s", "1/s", ph.throughput(0), "")
		m.add("read_ops_per_s", "1/s", ph.throughput(1), "")
	}
}

// --- per-layer metrics ------------------------------------------------------

func (b *bench) layerMetrics(m *metricSet, tr *tracer, plainP50 float64, traced *phase) {
	t := tr.tree()

	// server: the wire round trip minus the backend call it caused
	wire := map[string][]float64{}
	var bytes []float64
	for _, s := range t.spans {
		if !strings.HasPrefix(s.Name, "server.") {
			continue
		}
		bytes = append(bytes, float64(s.Bytes))
		for _, c := range t.children[s.ID] {
			wire[s.Class] = append(wire[s.Class], t.durUs(s)-t.durUs(c))
			wire[""] = append(wire[""], t.durUs(s)-t.durUs(c))
		}
	}
	m.add("server.wire_us", "us", median(wire[""]), "")
	for _, c := range classes {
		if len(wire[c]) > 0 {
			m.add("server.wire_us."+c, "us", median(wire[c]), "")
		}
	}
	m.add("server.resp_bytes", "bytes", mean(bytes), "mean over sampled replies")

	med := func(name, class string, self bool) float64 {
		f := t.durUs
		if self {
			f = t.selfUs
		}
		return median(t.collect(name, class, f))
	}
	m.add("core.view_open_us", "us", med("core.view_open", "", false), "")
	m.add("core.ask_self_us", "us", med("core.ask", "", true), "")
	catClass := ""
	if len(t.collect("core.catalog", classWrite, t.durUs)) > 0 {
		catClass = classWrite
	}
	m.add("core.catalog_us", "us", med("core.catalog", catClass, false), "")
	m.add("core.correct_us", "us", med("core.correct", "", false), "")
	m.add("reformulate.candidates_us", "us", med("reformulate.candidates", "", false), "")
	m.add("search.query_us", "us", med("search.query", "", false), "")
	m.add("browse.build_ms", "ms", med("browse.build", "", true)/1e3, "View.Browse minus a bare Snap.Scan")
	m.add("rdbms.parse_us", "us", med("rdbms.parse", classPoint, false), "point reads")
	m.add("rdbms.exec_us", "us", med("rdbms.exec", classPoint, false), "point reads")
	for _, c := range []string{classAsk, classScan} {
		if v := med("rdbms.exec", c, false); !math.IsNaN(v) {
			m.add("rdbms.parse_us."+c, "us", med("rdbms.parse", c, false), "")
			m.add("rdbms.exec_us."+c, "us", v, "")
		}
	}

	// engine counter deltas of the backend calls (and sampled SQL writes)
	var ops int
	var sum counters
	for _, s := range t.spans {
		if s.Counters == nil || (s.Parent != 0 && t.byID[s.Parent].Counters != nil) {
			continue // a per-shard call's deltas are inside its parent's
		}
		ops++
		sum.hits += s.Counters["buffer.hits"]
		sum.misses += s.Counters["buffer.misses"]
		sum.evictions += s.Counters["buffer.evictions"]
		sum.bypass += s.Counters["buffer.scanbypass"]
		sum.locks += s.Counters["lock.acquisitions"]
	}
	per := func(n int64) float64 { return float64(n) / float64(max(ops, 1)) }
	var coreAllocs []float64
	for _, s := range t.spans {
		if s.Counters != nil && s.layer() == "core" {
			coreAllocs = append(coreAllocs, float64(s.Counters["heap.allocs"]))
		}
	}
	m.add("core.allocs_per_op", "count", mean(coreAllocs), "heap objects per replayed core.* call, per shard on sharded_mixed")
	pins := sum.hits + sum.misses
	m.add("rdbms.buffer.hit_rate", "ratio", float64(sum.hits)/float64(max(pins, 1)), "")
	m.add("rdbms.buffer.pins_per_op", "count", per(pins), "")
	m.add("rdbms.buffer.misses_per_op", "count", per(sum.misses), "")
	m.add("rdbms.buffer.evictions_per_op", "count", per(sum.evictions), "")
	m.add("rdbms.buffer.scan_bypass_per_op", "count", per(sum.bypass), "")
	m.add("rdbms.lock.acquisitions_per_op", "count", per(sum.locks), "")

	// shard: the sharded call minus its other children and the slowest
	// per-shard call; skew is the slowest over the mean per-shard time
	if tr.dep.ss != nil {
		var fanout, skew []float64
		for _, s := range t.spans {
			if !strings.HasPrefix(s.Name, "shard.") {
				continue
			}
			fanout = append(fanout, t.selfUs(s))
			var slow, total float64
			n := 0
			for _, c := range t.children[s.ID] {
				if c.Par {
					slow = math.Max(slow, t.durUs(c))
					total += t.durUs(c)
					n++
				}
			}
			if n > 1 {
				skew = append(skew, slow/(total/float64(n)))
			}
		}
		m.add("shard.fanout_us", "us", median(fanout), "")
		m.add("shard.skew", "ratio", median(skew), "")
	}

	tp := p50(traced.latencies())
	m.add("trace.overhead_pct", "%", 100*(tp/plainP50-1), fmt.Sprintf("traced wire p50 %.4g ms vs untraced %.4g ms", tp, plainP50))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// --- process counters -------------------------------------------------------

// cpuTime is the CPU time the process has used, user and system. Time
// the host took the CPU away (steal) is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type processSample struct{ gcCPU, totalCPU, allocBytes float64 }

var processMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readProcess() processSample {
	s := make([]metrics.Sample, len(processMetrics))
	for i, n := range processMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return float64(s[i].Value.Uint64())
		}
		return s[i].Value.Float64()
	}
	return processSample{val(0), val(1), val(2)}
}

func (a processSample) minus(b processSample) processSample {
	return processSample{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes}
}

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/rdbms"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/synth"
)

// spec describes one workload: its data shape and why it exists. The
// request mix lives in newGenerator.
type spec struct {
	name   string
	why    string
	cities int  // synth city articles; city extraction loads 19 rows each
	disk   bool // core.Config.Dir set: checksummed pages + fsynced WAL
	shards int  // > 0 serves through shard.Open with this many in-memory shards
	// sample is the traced run's replay stride: every sample-th request
	// of each class on a connection is replayed in-process as a span tree.
	sample int
}

var specs = []spec{
	{
		name:   "interactive",
		why:    "1200 cities (22.8k rows, ~466 heap pages) in memory, inside the 512-frame pool; 40% ask, 30% search, 30% point SQL: wire, View, reformulation, search and B-tree costs dominate",
		cities: 1200, sample: 16,
	},
	{
		name:   "scan_large",
		why:    "4000 cities (76k rows, ~1548 heap pages, 3x the pool) on disk; COUNT, unindexed filter and top-k, browse, 15% hot point reads: heap scan, decode, pool misses and GC dominate",
		cities: 4000, disk: true, sample: 4,
	},
	{
		name:   "write_churn",
		why:    "1200 cities on disk, fsync on; a writer (assumed 40/25/35 SQL INSERT/DELETE/correct) beside a 1:1 ask/point reader: WAL flush, 2PL locks, MVCC versions and catalog rebuilds",
		cities: 1200, disk: true, sample: 8,
	},
	{
		name:   "sharded_mixed",
		why:    "the interactive corpus on 2 in-memory shards; assumed 7/7/3/3 ask, routed point SQL, fan-out COUNT(*) and top-k: the shard fan-out, merge and SQL deparse/reparse path",
		cities: 1200, shards: 2, sample: 8,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// clients is the closed loop's connection count: one per core of the
// reference box, each waiting for its reply before sending the next.
const clients = 2

// poolFrames is the buffer pool core.New opens every engine with.
const poolFrames = 512

// dataset is the seeded corpus and its ground-truth cities, in a
// seed-shuffled order: index 0 is the hottest
// Zipf target, so the hot set differs between seeds.
type dataset struct {
	corpus *doc.Corpus
	cities []*synth.City
}

func newDataset(seed int64, cities int) *dataset {
	corpus, truth := synth.Generate(synth.Config{Seed: seed, Cities: cities})
	ds := &dataset{corpus: corpus}
	for i := range truth.Cities {
		ds.cities = append(ds.cities, &truth.Cities[i])
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ds.cities), func(i, j int) { ds.cities[i], ds.cities[j] = ds.cities[j], ds.cities[i] })
	return ds
}

// deployment is one built system under test.
type deployment struct {
	backend server.Backend
	sys     *core.System         // single engine; nil when sharded
	ss      *shard.ShardedSystem // sharded backend; nil otherwise
	cfg     core.Config          // how sys was opened (reopen uses it)
	rows    int                  // ingested rows
	pages   int                  // heap pages of the extracted table (summed over shards)

	extract, bulkload time.Duration // single engine only
	ingest            time.Duration // sharded only: the whole BulkIngest
}

// engines lists the core systems behind the deployment.
func (d *deployment) engines() []*core.System {
	if d.ss == nil {
		return []*core.System{d.sys}
	}
	out := make([]*core.System, d.ss.Shards())
	for i := range out {
		out[i] = d.ss.Shard(i)
	}
	return out
}

func (d *deployment) close() error {
	if d.ss != nil {
		return d.ss.Close()
	}
	return d.sys.Close()
}

// buildSingle opens one engine over ds (on disk under dir when dir is
// set) and loads it through ExtractAll and BulkLoadRows.
func buildSingle(ds *dataset, dir string) (*deployment, error) {
	ctx := context.Background()
	cfg := core.Config{Corpus: ds.corpus, Workers: clients, Dir: dir}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rows, _, err := sys.ExtractAll(ctx, "city", 0)
	if err != nil {
		sys.Close()
		return nil, err
	}
	t1 := time.Now()
	rep, err := sys.BulkLoadRows(ctx, rows)
	if err != nil {
		sys.Close()
		return nil, err
	}
	d := &deployment{backend: sys, sys: sys, cfg: cfg, rows: rep.Rows,
		extract: t1.Sub(t0), bulkload: time.Since(t1)}
	d.pages = sys.DB.Table(core.TableName).Heap.Pages()
	return d, nil
}

// buildSharded opens an n-shard in-memory layout over ds and loads it
// through ShardedSystem.BulkIngest.
func buildSharded(ds *dataset, n int) (*deployment, error) {
	ss, err := shard.Open(shard.Config{Shards: n, System: core.Config{Corpus: ds.corpus, Workers: clients}})
	if err != nil {
		return nil, err
	}
	rep, err := ss.BulkIngest(context.Background(), "city", 0)
	if err != nil {
		ss.Close()
		return nil, err
	}
	d := &deployment{backend: ss, ss: ss, rows: rep.Rows, ingest: rep.Elapsed}
	for _, e := range d.engines() {
		d.pages += e.DB.Table(core.TableName).Heap.Pages()
	}
	return d, nil
}

func build(sp spec, ds *dataset, dir string) (*deployment, error) {
	if sp.shards > 0 {
		return buildSharded(ds, sp.shards)
	}
	if !sp.disk {
		dir = ""
	}
	return buildSingle(ds, dir)
}

// serving is a deployment behind an in-process server on loopback TCP.
type serving struct {
	srv  *server.Server
	addr string
	done chan error
}

func serve(b server.Backend) (*serving, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serving{srv: server.New(b, server.Options{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its accept loop to end.
func (s *serving) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// reference holds what the checks compare scan-shaped answers against,
// computed from one full Snap.Scan of the loaded table. topk follows
// ORDER BY num DESC, plus entity as a second key when byEntity is set.
type reference struct {
	rows int
	nums []float64 // every non-NULL num, ascending
	topk [][]string
}

const topK = 10

func buildReference(sys *core.System, byEntity bool) (*reference, error) {
	type row struct {
		entity, attribute string
		num               rdbms.Value
	}
	var all []row
	snap := sys.DB.BeginSnapshot()
	defer snap.Close()
	err := snap.Scan(core.TableName, func(_ rdbms.RID, t rdbms.Tuple) bool {
		all = append(all, row{t[0].S, t[1].S, t[4]})
		return true
	})
	if err != nil {
		return nil, err
	}
	ref := &reference{rows: len(all)}
	var withNum []row
	for _, r := range all {
		if f, ok := r.num.AsFloat(); ok {
			ref.nums = append(ref.nums, f)
			withNum = append(withNum, r)
		}
	}
	sort.Float64s(ref.nums)
	// ORDER BY num DESC keeps scan order among ties, as a stable sort does.
	sort.SliceStable(withNum, func(i, j int) bool {
		a, _ := withNum[i].num.AsFloat()
		b, _ := withNum[j].num.AsFloat()
		if a != b || !byEntity {
			return a > b
		}
		return withNum[i].entity < withNum[j].entity
	})
	for _, r := range withNum[:min(topK, len(withNum))] {
		ref.topk = append(ref.topk, []string{r.entity, r.attribute, r.num.String()})
	}
	return ref, nil
}

// countAbove returns how many nums exceed x.
func (r *reference) countAbove(x float64) int {
	return len(r.nums) - sort.Search(len(r.nums), func(i int) bool { return r.nums[i] > x })
}

// Request classes. Each end-to-end latency metric covers one class.
const (
	classAsk    = "ask"
	classSearch = "search"
	classPoint  = "point"
	classScan   = "scan" // COUNT(*), unindexed filter, unindexed top-k
	classBrowse = "browse"
	classWrite  = "write" // SQL INSERT / DELETE, correct
)

var classes = []string{classAsk, classSearch, classPoint, classScan, classBrowse, classWrite}

// op is one generated request with the check its response must pass.
type op struct {
	class string
	req   server.Request
	check func(*server.Response) error // nil for writes, audited after the run
	// write bookkeeping, applied when the write is acked
	onAck func()
}

// Every hot-set draw over the city list is Zipf: P(rank k) ∝ (zipfV+k)^-zipfS.
// Both values are assumptions; no recorded trace of this system's traffic
// exists to fit them to. s = 1.1 is just above the least rand.Zipf allows,
// the heaviest-tailed skew it draws. The offset flattens the head, so the
// top 100 cities take about half of the draws but no single city more than
// a few percent; it was chosen for steadiness, so that which cities a seed
// makes hot barely moves the cost of the mix.
const (
	zipfS = 1.1
	zipfV = 20
)

// generator draws one connection's requests.
type generator struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	ds   *dataset
	next func() op
}

func (g *generator) city() *synth.City { return g.ds.cities[g.zipf.Uint64()] }

// ask is a guided ask for one month's average temperature. It names a
// single month, not a range "average <month> <month> ...": over a
// bulk-loaded table the reformulator's month vocabulary is in
// ExtractAll's sort order, which is alphabetical, so a range averages the
// wrong months. That program defect is left standing, and
// TestAskMonthRangeAfterBulkLoad fails on it.
func (g *generator) ask() op {
	c := g.city()
	m := g.rng.Intn(len(synth.Months))
	q := fmt.Sprintf("average %s temperature %s %s", synth.Months[m], c.Name, c.State)
	want := c.AvgTemp(m, m)
	return op{class: classAsk, req: server.Request{Op: server.OpAsk, Query: q, K: 3},
		check: func(r *server.Response) error {
			if r.Guided == nil || r.Guided.Answer == nil || len(r.Guided.Answer.Rows) != 1 {
				return fmt.Errorf("no single-row answer")
			}
			return floatEq(r.Guided.Answer.Rows[0][0], want)
		}}
}

func (g *generator) search() op {
	c := g.city()
	return op{class: classSearch, req: server.Request{Op: server.OpSearch, Query: c.Name + " " + c.State, K: 10},
		check: func(r *server.Response) error {
			for _, h := range r.Hits {
				if h.Title == c.Title {
					return nil
				}
			}
			return fmt.Errorf("%q not among %d hits", c.Title, len(r.Hits))
		}}
}

// point is the entity-index read: all of a city's facts, whose monthly
// temperatures must equal the truth (nothing in any workload writes them).
func (g *generator) point() op {
	c := g.city()
	q := fmt.Sprintf("SELECT attribute, qualifier, value FROM extracted WHERE entity = '%s'", c.Title)
	return op{class: classPoint, req: server.Request{Op: server.OpSQL, SQL: q},
		check: func(r *server.Response) error { return checkCityRows(r.Result, c) }}
}

func checkCityRows(rs *server.ResultSet, c *synth.City) error {
	if rs == nil || len(rs.Rows) != 19 {
		return fmt.Errorf("want 19 rows")
	}
	temps := 0
	for _, row := range rs.Rows {
		if row[0] != "temperature" {
			continue
		}
		m := monthIndex(row[1])
		if m < 0 {
			return fmt.Errorf("unknown month %q", row[1])
		}
		if err := floatEq(row[2], c.MonthlyTemp[m]); err != nil {
			return fmt.Errorf("%s: %w", row[1], err)
		}
		temps++
	}
	if temps != 12 {
		return fmt.Errorf("%d temperature rows, want 12", temps)
	}
	return nil
}

func (g *generator) count(want func() int) op {
	return op{class: classScan, req: server.Request{Op: server.OpSQL, SQL: "SELECT COUNT(*) FROM extracted"},
		check: func(r *server.Response) error { return checkCount(r.Result, want()) }}
}

func checkCount(rs *server.ResultSet, want int) error {
	if rs == nil || len(rs.Rows) != 1 || rs.Rows[0][0] != strconv.Itoa(want) {
		return fmt.Errorf("want COUNT(*) = %d", want)
	}
	return nil
}

// filter is the unindexed predicate: populations above a drawn threshold
// (a few hundred rows at most).
func (g *generator) filter(ref *reference) op {
	x := 1_950_000 + float64(g.rng.Intn(50_000))
	q := fmt.Sprintf("SELECT entity, num FROM extracted WHERE num > %d", int(x))
	want := ref.countAbove(x)
	return op{class: classScan, req: server.Request{Op: server.OpSQL, SQL: q},
		check: func(r *server.Response) error {
			if r.Result == nil || len(r.Result.Rows) != want {
				return fmt.Errorf("want %d rows", want)
			}
			for _, row := range r.Result.Rows {
				if f, err := strconv.ParseFloat(row[1], 64); err != nil || f <= x {
					return fmt.Errorf("row %v fails num > %v", row, x)
				}
			}
			return nil
		}}
}

func (g *generator) topk(ref *reference, tieBreak string) op {
	q := "SELECT entity, attribute, num FROM extracted ORDER BY num DESC" + tieBreak + " LIMIT " + strconv.Itoa(topK)
	return op{class: classScan, req: server.Request{Op: server.OpSQL, SQL: q},
		check: func(r *server.Response) error {
			if r.Result == nil || fmt.Sprint(r.Result.Rows) != fmt.Sprint(ref.topk) {
				return fmt.Errorf("top-%d differs from the full-scan reference", topK)
			}
			return nil
		}}
}

func (g *generator) browse(rows int) op {
	return op{class: classBrowse, req: server.Request{Op: server.OpBrowse},
		check: func(r *server.Response) error {
			if r.Browse == nil || r.Browse.Rows != rows || len(r.Browse.Facets) != 3 {
				return fmt.Errorf("want %d rows and 3 facets", rows)
			}
			return nil
		}}
}

// churn is the write_churn writer's ledger of acked writes, audited after
// the clean close and reopen.
type churn struct {
	next      int               // next Churn-<n> to insert
	live      []int             // inserted and not yet deleted
	inserted  map[int]bool      // every acked insert
	deleted   map[int]bool      // every acked delete
	corrected map[string]string // entity -> last acked population value
}

func newChurn() *churn {
	return &churn{inserted: map[int]bool{}, deleted: map[int]bool{}, corrected: map[string]string{}}
}

func churnEntity(n int) string { return fmt.Sprintf("Churn-%d", n) }

// net is the row delta of the acked writes (each insert adds one row).
func (c *churn) net() int { return len(c.inserted) - len(c.deleted) }

func (g *generator) insert(ch *churn) op {
	n := ch.next
	ch.next++
	q := fmt.Sprintf("INSERT INTO extracted VALUES ('%s', 'temperature', 'July', '50', 50.0, 1.0)", churnEntity(n))
	return op{class: classWrite, req: server.Request{Op: server.OpSQL, SQL: q},
		onAck: func() {
			ch.live = append(ch.live, n)
			ch.inserted[n] = true
		}}
}

// delete removes one of the writer's live Churn entities (inserting one
// when none is live).
func (g *generator) delete(ch *churn) op {
	if len(ch.live) == 0 {
		return g.insert(ch)
	}
	i := g.rng.Intn(len(ch.live))
	n := ch.live[i]
	q := fmt.Sprintf("DELETE FROM extracted WHERE entity = '%s'", churnEntity(n))
	return op{class: classWrite, req: server.Request{Op: server.OpSQL, SQL: q},
		onAck: func() {
			ch.live = append(ch.live[:i], ch.live[i+1:]...)
			ch.deleted[n] = true
		}}
}

// correct sets a hot city's population; no read in any workload checks
// populations, so reads and corrections never race on a checked value.
func (g *generator) correct(ch *churn) op {
	c := g.city()
	v := strconv.Itoa(20000 + g.rng.Intn(2_000_000))
	return op{class: classWrite,
		req:   server.Request{Op: server.OpCorrect, User: "bench", Entity: c.Title, Attribute: "population", Value: v},
		onAck: func() { ch.corrected[c.Title] = v }}
}

// kind is one request kind of a mix with its weight.
type kind struct {
	weight int
	make   func() op
}

// interleave spreads a mix over one cycle by smooth weighted round
// robin: each kind's share is exact in every cycle and no kind comes in
// long runs, so the mix itself adds no run-to-run noise.
func interleave(kinds []kind) []func() op {
	total := 0
	for _, k := range kinds {
		total += k.weight
	}
	cur := make([]int, len(kinds))
	out := make([]func() op, 0, total)
	for len(out) < total {
		best := 0
		for i, k := range kinds {
			cur[i] += k.weight
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		out = append(out, kinds[best].make)
	}
	return out
}

// newGenerator returns connection conn's request stream for sp. Streams
// are a pure function of (seed, conn): the same seed draws the same
// requests in the same order. The connections of a workload walk the
// same cycle of request kinds from different offsets.
func newGenerator(sp spec, ds *dataset, ref *reference, rows int, ch *churn, seed int64, conn int) *generator {
	rng := rand.New(rand.NewSource(seed*7919 + int64(conn) + 1))
	g := &generator{rng: rng, ds: ds, zipf: rand.NewZipf(rng, zipfS, zipfV, uint64(len(ds.cities)-1))}
	count := func() op { return g.count(func() int { return rows }) }
	var kinds []kind
	// interactive's 40/30/30 and scan_large's 15% point reads are the
	// specified mixes; the write_churn and sharded_mixed mixes are
	// assumptions, with the reason for each written beside it.
	switch sp.name {
	case "interactive":
		kinds = []kind{{40, g.ask}, {30, g.search}, {30, g.point}}
	case "scan_large":
		kinds = []kind{{12, g.point}, {17, count}, {17, func() op { return g.filter(ref) }},
			{17, func() op { return g.topk(ref, "") }}, {17, func() op { return g.browse(rows) }}}
	case "write_churn":
		// The reader runs interactive's two reads of the table, at equal
		// weight so neither decides read_ops_per_s alone; search is left
		// out, as its index is built from the corpus and no write reaches it.
		kinds = []kind{{1, g.ask}, {1, g.point}}
		if conn == 0 {
			// Inserts and deletes, 65% of writes, add and drop entities, so
			// most writes invalidate the catalog; deletes stay below inserts
			// so a live Churn entity is almost always there to delete; the
			// other 35% correct Zipf-hot rows, where 2PL and MVCC versions
			// meet the reader.
			kinds = []kind{{40, func() op { return g.insert(ch) }}, {25, func() op { return g.delete(ch) }},
				{35, func() op { return g.correct(ch) }}}
		}
	case "sharded_mixed":
		// Routed asks and points, 70% of requests, keep the median on the
		// routed path; fan-out COUNT(*) and top-k, each about 50x dearer,
		// get 15% each, which still gives hundreds of samples a run. Entity
		// as a second sort key makes the cross-shard merge order total, so
		// it must equal the single-engine order.
		kinds = []kind{{7, g.ask}, {7, g.point}, {3, count}, {3, func() op { return g.topk(ref, ", entity") }}}
	}
	cycle := interleave(kinds)
	pos := conn * len(cycle) / clients
	g.next = func() op {
		pos++
		return cycle[pos%len(cycle)]()
	}
	return g
}

func monthIndex(name string) int {
	for i, m := range synth.Months {
		if m == name {
			return i
		}
	}
	return -1
}

// floatEq compares a wire-rendered number with the truth.
func floatEq(got string, want float64) error {
	f, err := strconv.ParseFloat(got, 64)
	if err != nil || math.Abs(f-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("got %s, want %v", got, want)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// liveRowBytes sums the encoded size of every live row of the table.
func liveRowBytes(sys *core.System) (int64, error) {
	var n int64
	snap := sys.DB.BeginSnapshot()
	defer snap.Close()
	err := snap.Scan(core.TableName, func(_ rdbms.RID, t rdbms.Tuple) bool {
		n += int64(len(rdbms.EncodeTuple(t)))
		return true
	})
	return n, err
}

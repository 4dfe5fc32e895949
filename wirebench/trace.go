package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rdbms"
	"repro/internal/reformulate"
	"repro/internal/search"
	"repro/internal/server"
)

// The traced run. Every sample-th request of a connection gets a wire
// span (the client-side round trip). After its reply, the request is
// replayed in-process as a tree of spans around the public calls it
// consists of: the backend call the server made (core.* or shard.*),
// and under it the calls that call is made of (core.view_open,
// reformulate.candidates, rdbms.parse, rdbms.exec, ...), each replayed
// on its own. The tree is logical: a child is timed on its own, after
// its parent, and self time is a span minus its children (minus the
// slowest of children that run in parallel, such as per-shard calls).
//
// Wire calls hold mu shared; replays hold it exclusively, so no request
// runs beside a replay and the engine counter deltas attached to a
// backend span belong to that one call. Writes run exclusively too, and
// keep mu through a System.Catalog probe right after them, which pays
// the catalog rebuild the write caused. SQL writes, which cannot run
// twice, are not replayed: their wire span carries their deltas.

type span struct {
	ID       int64            `json:"id"`
	Parent   int64            `json:"parent"`
	Req      int64            `json:"req"`
	Name     string           `json:"name"`
	Class    string           `json:"class"`
	Start    int64            `json:"start_ns"`
	End      int64            `json:"end_ns"`
	Par      bool             `json:"par,omitempty"`   // runs in parallel with its par siblings
	Probe    bool             `json:"probe,omitempty"` // measurement beside the request, not part of it
	Bytes    int              `json:"resp_bytes,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`

	replayed bool
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s *span) layer() string { return s.Name[:strings.IndexByte(s.Name, '.')] }

type tracer struct {
	mu     sync.RWMutex
	sample int
	dep    *deployment
	t0     time.Time

	spansMu sync.Mutex
	spans   []*span
	reqs    int64

	reform    *reformulate.Reformulator
	reformKey string
}

func newTracer(dep *deployment, sample int) *tracer {
	return &tracer{dep: dep, sample: sample, t0: time.Now()}
}

func (tr *tracer) add(s *span) *span {
	tr.spansMu.Lock()
	s.ID = int64(len(tr.spans) + 1)
	tr.spans = append(tr.spans, s)
	tr.spansMu.Unlock()
	return s
}

// engine counters, summed over the deployment's engines
type counters struct {
	hits, misses, evictions, bypass, locks int64
}

func (tr *tracer) counters() counters {
	var c counters
	for _, e := range tr.dep.engines() {
		bs := e.DB.BufferStats()
		c.hits += bs.Hits
		c.misses += bs.Misses
		c.evictions += bs.Evictions
		c.bypass += bs.ScanBypass
		c.locks += e.DB.LockManager().Acquisitions()
	}
	return c
}

func (c counters) delta(before counters) map[string]int64 {
	return map[string]int64{
		"buffer.hits":       c.hits - before.hits,
		"buffer.misses":     c.misses - before.misses,
		"buffer.evictions":  c.evictions - before.evictions,
		"buffer.scanbypass": c.bypass - before.bypass,
		"lock.acquisitions": c.locks - before.locks,
	}
}

// wireCall is one request in flight through a traced closed loop.
type wireCall struct {
	sampled   bool
	exclusive bool
	before    counters
}

// beginWire takes mu for the wire call: shared for reads, exclusive for
// writes, which keep it through the catalog probe that follows them.
func (tr *tracer) beginWire(o op, sampled bool) *wireCall {
	w := &wireCall{sampled: sampled, exclusive: o.class == classWrite}
	if w.exclusive {
		tr.mu.Lock()
		w.before = tr.counters()
	} else {
		tr.mu.RLock()
	}
	return w
}

// endWire finishes a wire call: after an acked write it times the
// catalog rebuild the write caused, and a sampled request gets its wire
// span and is replayed. A replay that fails is an error of the program,
// like a wrong answer.
func (tr *tracer) endWire(w *wireCall, o op, t0 time.Time, lat time.Duration, resp *server.Response, err error) error {
	var deltas map[string]int64
	var perr error
	if w.exclusive {
		deltas = tr.counters().delta(w.before)
		if err == nil {
			perr = tr.probeCatalog(0, classWrite)
		}
		tr.mu.Unlock()
	} else {
		tr.mu.RUnlock()
	}
	if perr != nil || !w.sampled || err != nil {
		return perr
	}
	tr.spansMu.Lock()
	tr.reqs++
	req := tr.reqs
	tr.spansMu.Unlock()
	start := t0.Sub(tr.t0).Nanoseconds()
	raw, _ := json.Marshal(resp)
	wire := tr.add(&span{Req: req, Name: "server." + o.class, Class: o.class,
		Start: start, End: start + lat.Nanoseconds(), Bytes: len(raw)})
	if o.req.Op == server.OpSQL && o.class == classWrite {
		wire.Counters = deltas // a SQL write cannot run twice
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := tr.replay(wire, o); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if o.class != classWrite {
		return tr.probeCatalog(req, o.class)
	}
	return nil
}

// probeCatalog times System.Catalog on the first engine: the cache-hit
// cost after a read, the rebuild after an invalidating write.
func (tr *tracer) probeCatalog(req int64, class string) error {
	sys := tr.dep.engines()[0]
	s, err := tr.timed(nil, req, "core.catalog", class, func() error {
		_, err := sys.Catalog(context.Background())
		return err
	})
	s.Probe = true
	return err
}

// newSpan starts a span under parent (a root span of request req when
// parent is nil).
func newSpan(parent *span, req int64, name, class string) *span {
	s := &span{Req: req, Name: name, Class: class}
	if parent != nil {
		s.Parent, s.Req = parent.ID, parent.Req
	}
	return s
}

// timed runs fn as a new span.
func (tr *tracer) timed(parent *span, req int64, name, class string, fn func() error) (*span, error) {
	s := newSpan(parent, req, name, class)
	return s, tr.time(s, fn)
}

// time runs fn, records when it ran in s and adds s to the trace.
func (tr *tracer) time(s *span, fn func() error) error {
	t0 := time.Now()
	err := fn()
	s.Start = t0.Sub(tr.t0).Nanoseconds()
	s.End = time.Since(tr.t0).Nanoseconds()
	tr.add(s)
	if err != nil {
		return fmt.Errorf("%s: %w", s.Name, err)
	}
	return nil
}

// counted is timed with the engine counter deltas of fn attached, and
// the heap objects fn allocated. runtime.ReadMemStats flushes every
// per-P allocation cache, so the count is exact, and it runs outside the
// timed window; no request runs beside a replay, so the objects are
// fn's (and any background goroutine's).
func (tr *tracer) counted(parent *span, name, class string, fn func() error) (*span, error) {
	s := newSpan(parent, 0, name, class)
	before := tr.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := tr.time(s, fn)
	runtime.ReadMemStats(&m1)
	s.Counters = tr.counters().delta(before)
	s.Counters["heap.allocs"] = int64(m1.Mallocs - m0.Mallocs)
	return s, err
}

// reformulator returns a reformulator over the backend's current
// catalog, rebuilt when the catalog epoch moves. It stands in for the
// one core keeps, which is not exported.
func (tr *tracer) reformulator() (*reformulate.Reformulator, error) {
	ctx := context.Background()
	var key strings.Builder
	for _, e := range tr.dep.engines() {
		fmt.Fprintf(&key, "%d/", e.WarmEpoch())
	}
	if tr.reform != nil && key.String() == tr.reformKey {
		return tr.reform, nil
	}
	var cat reformulate.Catalog
	var err error
	if tr.dep.ss != nil {
		cat, err = tr.dep.ss.Catalog(ctx)
	} else {
		cat, err = tr.dep.sys.Catalog(ctx)
	}
	if err != nil {
		return nil, err
	}
	tr.reform, tr.reformKey = reformulate.New(cat), key.String()
	return tr.reform, nil
}

// replay re-executes the request of wire in-process.
func (tr *tracer) replay(wire *span, o op) error {
	wire.replayed = true
	ctx := context.Background()
	q := o.req
	if ss := tr.dep.ss; ss != nil {
		switch q.Op {
		case server.OpAsk:
			var ans *core.GuidedAnswer
			root, err := tr.counted(wire, "shard.ask", o.class, func() (err error) {
				ans, err = ss.AskGuided(ctx, q.Query, q.K)
				return err
			})
			if err != nil {
				return err
			}
			top, err := tr.candidates(root, q)
			if err != nil {
				return err
			}
			if len(ans.Candidates) == 0 || ans.Candidates[0].SQL != top {
				return fmt.Errorf("ask: the served top candidate is not %q", top)
			}
			return tr.fanOut(root, top, allShards(ss.Shards()))
		case server.OpSQL:
			root, err := tr.counted(wire, "shard.sql", o.class, func() error {
				_, err := ss.SQL(ctx, q.SQL)
				return err
			})
			if err != nil {
				return err
			}
			if o.class == classPoint {
				return tr.fanOut(root, q.SQL, []int{ss.Owner(pointEntity(q.SQL))})
			}
			return tr.fanOut(root, q.SQL, allShards(ss.Shards()))
		}
		return fmt.Errorf("no sharded replay for %s", q.Op)
	}

	sys := tr.dep.sys
	switch q.Op {
	case server.OpAsk:
		root, err := tr.counted(wire, "core.ask", o.class, func() error {
			_, err := sys.AskGuided(ctx, q.Query, q.K)
			return err
		})
		if err != nil {
			return err
		}
		if err := tr.viewOpen(root, sys, nil); err != nil {
			return err
		}
		top, err := tr.candidates(root, q)
		if err != nil {
			return err
		}
		return tr.parseExec(root, sys, top)
	case server.OpSearch:
		root, err := tr.counted(wire, "core.search", o.class, func() error {
			_, err := sys.KeywordSearch(ctx, q.Query, q.K)
			return err
		})
		if err != nil {
			return err
		}
		if err := tr.viewOpen(root, sys, nil); err != nil {
			return err
		}
		_, err = tr.timed(root, 0, "search.query", o.class, func() error {
			sys.Index.Search(q.Query, q.K, search.BM25)
			return nil
		})
		return err
	case server.OpSQL:
		return tr.coreSQL(wire, sys, q.SQL, o.class, false)
	case server.OpBrowse:
		root, err := tr.counted(wire, "core.browse", o.class, func() error {
			_, err := sys.Browse(ctx)
			return err
		})
		if err != nil {
			return err
		}
		return tr.viewOpen(root, sys, func(v *core.View) error {
			build, err := tr.timed(root, 0, "browse.build", o.class, func() error {
				_, err := v.Browse()
				return err
			})
			if err != nil {
				return err
			}
			snap := sys.DB.BeginSnapshot()
			defer snap.Close()
			_, err = tr.timed(build, 0, "rdbms.scan", o.class, func() error {
				return snap.Scan(core.TableName, func(rdbms.RID, rdbms.Tuple) bool { return true })
			})
			return err
		})
	case server.OpCorrect:
		_, err := tr.counted(wire, "core.correct", o.class, func() error {
			return sys.CorrectValue(ctx, q.User, q.Entity, q.Attribute, q.Qualifier, q.Value)
		})
		return err
	}
	return fmt.Errorf("no replay for %s", q.Op)
}

// viewOpen times System.View, hands the open View to use (when set),
// and closes it.
func (tr *tracer) viewOpen(parent *span, sys *core.System, use func(*core.View) error) error {
	var v *core.View
	if _, err := tr.timed(parent, 0, "core.view_open", parent.Class, func() (err error) {
		v, err = sys.View(context.Background())
		return err
	}); err != nil {
		return err
	}
	defer v.Close()
	if use == nil {
		return nil
	}
	return use(v)
}

// candidates times the reformulation of an ask and returns the top
// candidate's SQL.
func (tr *tracer) candidates(parent *span, q server.Request) (string, error) {
	r, err := tr.reformulator()
	if err != nil {
		return "", err
	}
	var cands []reformulate.Candidate
	tr.timed(parent, 0, "reformulate.candidates", parent.Class, func() error {
		cands = r.Candidates(q.Query, q.K)
		return nil
	})
	if len(cands) == 0 {
		return "", errors.New("ask: no candidate")
	}
	return cands[0].SQL, nil
}

// coreSQL replays System.SQL on one engine as core.sql with its view,
// parse and exec children. par marks it as one of several shards.
func (tr *tracer) coreSQL(parent *span, sys *core.System, sql, class string, par bool) error {
	root, err := tr.counted(parent, "core.sql", class, func() error {
		_, err := sys.SQL(context.Background(), sql)
		return err
	})
	if err != nil {
		return err
	}
	root.Par = par
	if err := tr.viewOpen(root, sys, nil); err != nil {
		return err
	}
	return tr.parseExec(root, sys, sql)
}

// parseExec times ParseSQL and Snap.ExecSelect of one SELECT.
func (tr *tracer) parseExec(parent *span, sys *core.System, sql string) error {
	var stmt rdbms.Statement
	if _, err := tr.timed(parent, 0, "rdbms.parse", parent.Class, func() (err error) {
		stmt, err = rdbms.ParseSQL(sql)
		return err
	}); err != nil {
		return err
	}
	sel, ok := stmt.(rdbms.SelectStmt)
	if !ok {
		return fmt.Errorf("not a SELECT: %s", sql)
	}
	snap := sys.DB.BeginSnapshot()
	defer snap.Close()
	_, err := tr.timed(parent, 0, "rdbms.exec", parent.Class, func() error {
		_, err := snap.ExecSelect(sel)
		return err
	})
	return err
}

// fanOut replays sql on each listed shard through Shard(i), in
// parallel with one another when there is more than one.
func (tr *tracer) fanOut(parent *span, sql string, shards []int) error {
	for _, i := range shards {
		if err := tr.coreSQL(parent, tr.dep.ss.Shard(i), sql, parent.Class, len(shards) > 1); err != nil {
			return err
		}
	}
	return nil
}

func allShards(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// pointEntity extracts the entity literal of a point query.
func pointEntity(sql string) string {
	_, rest, _ := strings.Cut(sql, "entity = '")
	ent, _, _ := strings.Cut(rest, "'")
	return ent
}

// --- analysis ---------------------------------------------------------------

type spanTree struct {
	spans    []*span
	byID     map[int64]*span
	children map[int64][]*span
}

func (tr *tracer) tree() *spanTree {
	t := &spanTree{spans: tr.spans, byID: map[int64]*span{}, children: map[int64][]*span{}}
	for _, s := range tr.spans {
		t.byID[s.ID] = s
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// self is a span minus its sequential children and minus the slowest of
// its parallel children. Children run apart from their parent, so a thin
// layer over a heavy child (core over a full-table scan on scan_large)
// can come out below zero: there the difference between two runs of the
// same scan is larger than the layer's own time.
func (t *spanTree) self(s *span) time.Duration {
	d := s.dur()
	var par time.Duration
	for _, c := range t.children[s.ID] {
		if c.Probe {
			continue
		}
		if c.Par {
			par = max(par, c.dur())
		} else {
			d -= c.dur()
		}
	}
	return d - par
}

// inReplay reports whether s belongs to a replayed request's tree.
func (t *spanTree) inReplay(s *span) bool {
	for s.Parent != 0 {
		s = t.byID[s.Parent]
	}
	return s.replayed && !s.Probe
}

// layerSelf sums self time per layer over the replayed requests.
func (t *spanTree) layerSelf() (map[string]time.Duration, int) {
	out := map[string]time.Duration{}
	reqs := 0
	for _, s := range t.spans {
		if s.Probe || !t.inReplay(s) {
			continue
		}
		if s.Parent == 0 {
			reqs++
		}
		out[s.layer()] += t.self(s)
	}
	return out, reqs
}

// collect returns f over the spans named name (and of class, when set).
func (t *spanTree) collect(name, class string, f func(*span) float64) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (class == "" || s.Class == class) {
			out = append(out, f(s))
		}
	}
	return out
}

func (t *spanTree) durUs(s *span) float64 { return float64(s.dur().Nanoseconds()) / 1e3 }

func (t *spanTree) selfUs(s *span) float64 { return float64(t.self(s).Nanoseconds()) / 1e3 }

// writeTable prints the per-layer self-time table.
func (t *spanTree) writeTable(w io.Writer, workload string) {
	self, reqs := t.layerSelf()
	var total time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "# self time per layer, %s, over %d replayed requests\n", workload, reqs)
	fmt.Fprintf(w, "# %-12s %14s %8s\n", "layer", "us/request", "share")
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[l]) / float64(total)
		}
		fmt.Fprintf(w, "# %-12s %14.1f %7.1f%%\n", l, float64(self[l].Nanoseconds())/1e3/float64(max(reqs, 1)), share)
	}
}

// writeFile writes every span as one JSON object per line.
func (tr *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

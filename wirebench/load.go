package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// failures counts failed requests and failed checks by kind, keeping
// the first of each kind with its seed and request.
type failures map[string]*failure

type failure struct {
	n     int
	first string
}

func (f failures) add(kind, format string, args ...any) {
	if f[kind] == nil {
		f[kind] = &failure{first: fmt.Sprintf(format, args...)}
	}
	f[kind].n++
}

func (f failures) merge(g failures) {
	for k, v := range g {
		if f[k] == nil {
			f[k] = &failure{first: v.first}
		}
		f[k].n += v.n
	}
}

// count sums the failures whose kind starts with prefix.
func (f failures) count(prefix string) int {
	n := 0
	for k, v := range f {
		if strings.HasPrefix(k, prefix) {
			n += v.n
		}
	}
	return n
}

func (f failures) print(w io.Writer) {
	kinds := make([]string, 0, len(f))
	for k := range f {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "# FAILED %s: %d, first: %s\n", k, f[k].n, f[k].first)
	}
}

// connStats is what one closed-loop connection saw during a phase.
type connStats struct {
	lat       map[string][]time.Duration // per request class
	done      []interval                 // every completed request
	attempted int
	bad       failures
}

// interval is when a request ran, as offsets from the start of its phase.
type interval struct{ start, end time.Duration }

// failedPrefix marks the failures that are failed requests (any error,
// typed refusals included); every other kind is a failed check.
const failedPrefix = "request_error."

// phase is one measured closed-loop interval over every connection.
type phase struct {
	elapsed time.Duration
	conns   []*connStats
}

// latencies returns the phase's latencies of the given classes (all
// classes when none are named), ascending.
func (p *phase) latencies(cls ...string) []time.Duration {
	var out []time.Duration
	for _, c := range p.conns {
		for class, l := range c.lat {
			if len(cls) == 0 || contains(cls, class) {
				out = append(out, l...)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// throughputWindows is how many windows throughput splits a phase into.
const throughputWindows = 10

// throughput is the median over the phase's windows of requests
// completed per second on the given connections (all when none are
// named). A request counts in each window by the share of its duration
// that falls inside it. A stall of the host in part of the run moves the
// median less than it moves the overall rate.
func (p *phase) throughput(conns ...int) float64 {
	if len(conns) == 0 {
		for i := range p.conns {
			conns = append(conns, i)
		}
	}
	w := p.elapsed / throughputWindows
	counts := make([]float64, throughputWindows)
	for _, c := range conns {
		for _, iv := range p.conns[c].done {
			d := float64(iv.end - iv.start)
			for i := int(iv.start / w); i < throughputWindows && time.Duration(i)*w < iv.end; i++ {
				lo, hi := max(iv.start, time.Duration(i)*w), min(iv.end, time.Duration(i+1)*w)
				if d == 0 {
					counts[i]++
					break
				}
				counts[i] += float64(hi-lo) / d
			}
		}
	}
	return median(counts) / w.Seconds()
}

func (p *phase) attempted() int {
	n := 0
	for _, c := range p.conns {
		n += c.attempted
	}
	return n
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// closedLoop runs closed loops of one request stream per connection. The
// connections stay open across phases, and each generator continues its
// stream where the previous phase stopped.
type closedLoop struct {
	seed  int64
	gens  []*generator
	conns []*server.Client
}

func newClosedLoop(addr string, gens []*generator, seed int64) (*closedLoop, error) {
	d := &closedLoop{seed: seed, gens: gens}
	for range gens {
		c, err := server.Dial(addr, 10*time.Second)
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, c)
	}
	return d, nil
}

func (d *closedLoop) close() {
	for _, c := range d.conns {
		c.Close()
	}
}

// run drives every connection for dur with no think time. With a tracer,
// every sample-th request of each class on a connection is replayed
// in-process after its reply (see tracer).
func (d *closedLoop) run(dur time.Duration, tr *tracer) *phase {
	p := &phase{conns: make([]*connStats, len(d.gens))}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range d.gens {
		p.conns[i] = &connStats{lat: map[string][]time.Duration{}, bad: failures{}}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.loop(i, start, dur, p.conns[i], tr)
		}(i)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

func (d *closedLoop) loop(conn int, start time.Time, dur time.Duration, st *connStats, tr *tracer) {
	deadline := start.Add(dur)
	g, cli := d.gens[conn], d.conns[conn]
	ctx := context.Background()
	perClass := map[string]int{} // requests so far, by class
	for time.Now().Before(deadline) {
		o := g.next()
		req := o.req
		// sample every class at the same stride, whatever the mix
		sampled := tr != nil && perClass[o.class]%tr.sample == 0
		perClass[o.class]++
		var w *wireCall
		if tr != nil {
			w = tr.beginWire(o, sampled)
		}
		t0 := time.Now()
		resp, err := cli.Do(ctx, &req)
		lat := time.Since(t0)
		st.attempted++
		what := req.Query + req.SQL + req.Entity
		if err != nil {
			st.bad.add(failedPrefix+o.class, "seed %d: %s %q: %v", d.seed, req.Op, what, err)
		} else {
			st.lat[o.class] = append(st.lat[o.class], lat)
			st.done = append(st.done, interval{t0.Sub(start), t0.Sub(start) + lat})
			if o.check != nil {
				if cerr := o.check(resp); cerr != nil {
					st.bad.add("wrong_answer."+o.class, "seed %d: %s %q: %v", d.seed, req.Op, what, cerr)
				}
			}
			if o.onAck != nil {
				o.onAck()
			}
		}
		if w != nil {
			if rerr := tr.endWire(w, o, t0, lat, resp, err); rerr != nil {
				st.bad.add("replay."+o.class, "seed %d: %s %q: %v", d.seed, req.Op, what, rerr)
			}
		}
	}
}

package shard

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/rdbms"
)

// shardExec executes one parsed SELECT against one shard (a pinned view
// or a one-shot read) and returns its result. A core.ErrClosed error
// marks the shard as a gap rather than failing the whole query. Fan-out
// calls it from one goroutine per shard with the same statement, which
// the executor only reads.
type shardExec func(i int, sel rdbms.SelectStmt) (*rdbms.ResultSet, error)

// parseSelect parses a sharded read: anything but a SELECT is refused
// with ErrReadOnly.
func parseSelect(query string) (rdbms.SelectStmt, error) {
	stmt, err := rdbms.ParseSQL(query)
	if err != nil {
		return rdbms.SelectStmt{}, err
	}
	sel, ok := stmt.(rdbms.SelectStmt)
	if !ok {
		return rdbms.SelectStmt{}, fmt.Errorf("%w: %q", ErrReadOnly, query)
	}
	return sel, nil
}

// execSharded plans and executes one parsed SELECT across n shards.
// Routing order: entity-routed single-shard execution of the statement
// as given (every SQL feature supported), then the cross-shard merge
// paths — aggregate recombination, DISTINCT dedup, ORDER BY k-way
// merge, and entity merge or concatenation for unordered scans. Each
// merge path rewrites its own copy of the statement and hands that AST
// to the shards; nothing is re-rendered to text or parsed again.
func execSharded(ss *ShardedSystem, sel rdbms.SelectStmt, n int, exec shardExec) (*rdbms.ResultSet, error) {
	// Entity-routed: a top-level `entity = '...'` conjunct over the
	// partitioned table pins every matching row to one shard; the
	// statement runs there unchanged, so every SELECT feature (joins on
	// that shard's tables, HAVING, aggregate arithmetic) behaves exactly
	// like a single engine.
	if entity, routed := routedEntity(sel); routed {
		owner := ss.Owner(entity)
		rs, err := exec(owner, sel)
		if err != nil {
			if isGap(err) {
				ss.markDown(owner)
				return nil, ss.degraded([]int{owner})
			}
			return nil, err
		}
		return rs, nil
	}

	if sel.Join != nil {
		return nil, fmt.Errorf("%w: cross-shard JOIN (add an entity filter to route it)", ErrUnsupported)
	}

	grouped := len(sel.GroupBy) > 0
	for _, se := range sel.Exprs {
		if !se.Star && rdbms.HasAggregate(se.Expr) {
			grouped = true
		}
	}
	if grouped {
		return execShardedAgg(ss, sel, n, exec)
	}
	if sel.Distinct {
		return execShardedDistinct(ss, sel, n, exec)
	}
	if len(sel.OrderBy) > 0 {
		return execShardedOrdered(ss, sel, n, exec)
	}
	return execShardedUnordered(ss, sel, n, exec)
}

// routedEntity reports whether the statement is pinned to one entity of
// the partitioned extracted table by a top-level equality conjunct.
func routedEntity(sel rdbms.SelectStmt) (string, bool) {
	if sel.From != core.TableName {
		return "", false
	}
	for _, c := range conjuncts(sel.Where) {
		be, ok := c.(rdbms.BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		if e, ok := entityEqSides(be.Left, be.Right); ok {
			return e, true
		}
		if e, ok := entityEqSides(be.Right, be.Left); ok {
			return e, true
		}
	}
	return "", false
}

func entityEqSides(colSide, litSide rdbms.Expr) (string, bool) {
	cr, ok := colSide.(rdbms.ColumnRef)
	if !ok || cr.Column != "entity" {
		return "", false
	}
	lit, ok := litSide.(rdbms.Literal)
	if !ok || lit.Val.Type != rdbms.TString {
		return "", false
	}
	return lit.Val.S, true
}

func conjuncts(e rdbms.Expr) []rdbms.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(rdbms.BinaryExpr); ok && be.Op == "AND" {
		return append(conjuncts(be.Left), conjuncts(be.Right)...)
	}
	return []rdbms.Expr{e}
}

// fanOut runs the (possibly rewritten) statement on every shard in
// parallel. Gaps (closed shards) come back in down; any other error
// fails the query. results is indexed by shard, nil at gaps.
func fanOut(ss *ShardedSystem, n int, sel rdbms.SelectStmt, exec shardExec) (results []*rdbms.ResultSet, down []int, err error) {
	results = make([]*rdbms.ResultSet, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = exec(i, sel)
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e == nil {
			continue
		}
		if isGap(e) {
			ss.markDown(i)
			down = append(down, i)
			results[i] = nil
			continue
		}
		return nil, nil, e
	}
	return results, down, nil
}

// finishPartial wraps a merged result with its degraded marker (if
// any); with no surviving shard there is no result at all.
func finishPartial(ss *ShardedSystem, rs *rdbms.ResultSet, down []int, served bool) (*rdbms.ResultSet, error) {
	if !served {
		if de := ss.degraded(down); de != nil {
			return nil, de
		}
		return nil, core.ErrClosed
	}
	if de := ss.degraded(down); de != nil {
		return rs, de
	}
	return rs, nil
}

// applyOffsetLimit mirrors the engine's final OFFSET/LIMIT step.
func applyOffsetLimit(rs *rdbms.ResultSet, offset, limit int) {
	if offset > 0 {
		if offset >= len(rs.Rows) {
			rs.Rows = nil
		} else {
			rs.Rows = rs.Rows[offset:]
		}
	}
	if limit >= 0 && len(rs.Rows) > limit {
		rs.Rows = rs.Rows[:limit]
	}
}

// pushedLimit converts a global OFFSET o LIMIT l into the per-shard
// prefix bound o+l (any global survivor is within its shard's first o+l
// rows); -1 when unbounded.
func pushedLimit(sel rdbms.SelectStmt) int {
	if sel.Limit < 0 {
		return -1
	}
	return sel.Offset + sel.Limit
}

// orderLess mirrors the engine's orderLess over rows whose i-th ORDER BY
// key sits at column cols[i]: incomparable pairs and equal keys fall
// through to the next key; a full tie is "not less".
func orderLess(a, b rdbms.Tuple, cols []int, keys []rdbms.OrderKey) bool {
	for i, k := range keys {
		c, ok := rdbms.Compare(a[cols[i]], b[cols[i]])
		if !ok || c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// mergeSorted is the one k-way merge: it merges streams that are each
// sorted by less and calls emit with every element in merged order.
// Among the current heads the strictly smaller wins; ties go to the
// lowest stream index, so streams indexed by shard break cross-shard
// ties by shard order.
func mergeSorted[T any](streams [][]T, less func(a, b T) bool, emit func(T)) {
	cursors := make([]int, len(streams))
	for {
		best := -1
		for i, s := range streams {
			if cursors[i] < len(s) && (best < 0 || less(s[cursors[i]], streams[best][cursors[best]])) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		emit(streams[best][cursors[best]])
		cursors[best]++
	}
}

// rowStreams returns each shard's rows, nil at gaps, keeping the shard
// index as the stream index.
func rowStreams(results []*rdbms.ResultSet) [][]rdbms.Tuple {
	streams := make([][]rdbms.Tuple, len(results))
	for i, rs := range results {
		if rs != nil {
			streams[i] = rs.Rows
		}
	}
	return streams
}

// canonKey encodes values into the engine's grouping/dedup equivalence:
// numerics unify by float64 value, strings by bytes, bools, NULLs.
func canonKey(vals []rdbms.Value) string {
	var sb strings.Builder
	for _, v := range vals {
		switch v.Type {
		case rdbms.TNull:
			sb.WriteByte('z')
		case rdbms.TInt, rdbms.TFloat:
			f, _ := v.AsFloat()
			fmt.Fprintf(&sb, "n%016x", math.Float64bits(f))
		case rdbms.TString:
			fmt.Fprintf(&sb, "s%d:%s", len(v.S), v.S)
		case rdbms.TBool:
			if v.B {
				sb.WriteString("b1")
			} else {
				sb.WriteString("b0")
			}
		}
	}
	return sb.String()
}

// outputNames returns the statement's output column names, or nil when
// a * makes them depend on the table.
func outputNames(sel rdbms.SelectStmt) []string {
	names := make([]string, 0, len(sel.Exprs))
	for _, se := range sel.Exprs {
		if se.Star {
			return nil
		}
		names = append(names, rdbms.SelectColumnName(se))
	}
	return names
}

// outputColumn resolves an ORDER BY key that is an unqualified column
// name to the first output column of that name, mirroring the engine's
// alias resolution; -1 when it does not name one.
func outputColumn(names []string, key rdbms.Expr) int {
	if cr, ok := key.(rdbms.ColumnRef); ok && cr.Table == "" {
		return slices.Index(names, cr.Column)
	}
	return -1
}

// --- Ordered merge --------------------------------------------------------

// execShardedOrdered is the tentpole path: each shard runs the query
// with the sort (and a tightened LIMIT) pushed down, returning streams
// already in ORDER BY order; a k-way merge recombines them preserving
// per-shard tie order and breaking cross-shard ties by shard index.
// ORDER BY keys that are not already output columns are appended to the
// per-shard projection under reserved aliases and stripped after the
// merge, so keys over unprojected columns merge exactly.
func execShardedOrdered(ss *ShardedSystem, sel rdbms.SelectStmt, n int, exec shardExec) (*rdbms.ResultSet, error) {
	shardSel := sel
	shardSel.Limit = pushedLimit(sel)
	shardSel.Offset = 0

	// Resolve each key to an existing output column (mirroring the
	// engine's alias resolution: first name match wins) or append it.
	// keyCols holds an output index, or -1-j for appended column j.
	names := outputNames(sel)
	keyCols := make([]int, len(sel.OrderBy))
	appended := 0
	exprs := append([]rdbms.SelectExpr{}, sel.Exprs...)
	for ki, k := range sel.OrderBy {
		if keyCols[ki] = outputColumn(names, k.Expr); keyCols[ki] < 0 {
			exprs = append(exprs, rdbms.SelectExpr{Expr: k.Expr, Alias: fmt.Sprintf("__k%d", appended)})
			keyCols[ki] = -1 - appended
			appended++
		}
	}
	shardSel.Exprs = exprs

	results, down, err := fanOut(ss, n, shardSel, exec)
	if err != nil {
		return nil, err
	}

	out := &rdbms.ResultSet{Plan: fmt.Sprintf("sharded fan-out(%d) + k-way merge", n)}
	served := false
	baseN := 0
	for _, rs := range results {
		if rs != nil {
			baseN = len(rs.Columns) - appended
			out.Columns = rs.Columns[:baseN]
			served = true
			break
		}
	}
	if !served {
		return finishPartial(ss, nil, down, false)
	}

	for ki, c := range keyCols {
		if c < 0 {
			keyCols[ki] = baseN - 1 - c
		}
	}
	mergeSorted(rowStreams(results), func(a, b rdbms.Tuple) bool {
		return orderLess(a, b, keyCols, sel.OrderBy)
	}, func(row rdbms.Tuple) {
		out.Rows = append(out.Rows, row[:baseN])
	})
	applyOffsetLimit(out, sel.Offset, sel.Limit)
	return finishPartial(ss, out, down, true)
}

// --- Unordered scans -------------------------------------------------------

// execShardedUnordered recombines unordered scans. For the partitioned
// extracted table the bulk-ingest stream is globally entity-sorted (the
// cluster sorts its reduce output by key), so every shard's heap holds
// an entity-ascending subsequence of the single-engine stream — and a
// merge keyed on the entity column (shipped per shard under a reserved
// alias and stripped afterwards) reconstructs that stream byte-exactly,
// intra-entity order included, since one entity never spans two shards.
// Other tables are replicated or shard-local; their rows concatenate
// shard-major.
func execShardedUnordered(ss *ShardedSystem, sel rdbms.SelectStmt, n int, exec shardExec) (*rdbms.ResultSet, error) {
	shardSel := sel
	shardSel.Limit = pushedLimit(sel)
	shardSel.Offset = 0
	entityMerge := sel.From == core.TableName
	if entityMerge {
		shardSel.Exprs = append(append([]rdbms.SelectExpr{}, sel.Exprs...),
			rdbms.SelectExpr{Expr: rdbms.ColumnRef{Column: "entity"}, Alias: "__k0"})
	}
	results, down, err := fanOut(ss, n, shardSel, exec)
	if err != nil {
		return nil, err
	}
	out := &rdbms.ResultSet{Plan: fmt.Sprintf("sharded fan-out(%d) + entity merge", n)}
	served := false
	baseN := 0
	for _, rs := range results {
		if rs != nil {
			baseN = len(rs.Columns)
			if entityMerge {
				baseN--
			}
			out.Columns = rs.Columns[:baseN]
			served = true
			break
		}
	}
	if !served {
		return finishPartial(ss, nil, down, false)
	}
	if entityMerge {
		mergeByEntity(results, baseN, func(row rdbms.Tuple) {
			out.Rows = append(out.Rows, row[:baseN])
		})
	} else {
		out.Plan = fmt.Sprintf("sharded fan-out(%d) + concat", n)
		for _, rs := range results {
			if rs != nil {
				out.Rows = append(out.Rows, rs.Rows...)
			}
		}
	}
	applyOffsetLimit(out, sel.Offset, sel.Limit)
	return finishPartial(ss, out, down, true)
}

// mergeByEntity merges per-shard streams on ascending entity (byte
// order, matching the cluster's key sort), emitting each row to emit.
// The entity value sits at column entIdx. Runs of one entity never
// cross shards, so advancing within the winning shard while its head
// stays minimal preserves intra-entity order; the lowest shard index
// would win a cross-shard tie, but partitioning makes ties impossible.
func mergeByEntity(results []*rdbms.ResultSet, entIdx int, emit func(rdbms.Tuple)) {
	mergeSorted(rowStreams(results), func(a, b rdbms.Tuple) bool {
		return a[entIdx].S < b[entIdx].S
	}, emit)
}

// --- DISTINCT -------------------------------------------------------------

// execShardedDistinct dedups per shard, then globally. With ORDER BY,
// every key must already be an output column (appending merge keys
// would change dedup identity), and rows merge in sorted order with
// global dedup — matching the engine's sort-then-dedup pipeline.
// Without ORDER BY, dedup order is first-seen over the scan: the raw
// (non-distinct) stream is reconstructed with the entity merge and
// deduped globally, reproducing the single engine's first-seen order at
// the cost of shipping per-shard duplicates.
func execShardedDistinct(ss *ShardedSystem, sel rdbms.SelectStmt, n int, exec shardExec) (*rdbms.ResultSet, error) {
	if len(sel.OrderBy) == 0 && sel.From == core.TableName {
		return execShardedDistinctScan(ss, sel, n, exec)
	}
	names := outputNames(sel)
	var keyIdx []int
	for _, k := range sel.OrderBy {
		idx := outputColumn(names, k.Expr)
		if idx < 0 {
			return nil, fmt.Errorf("%w: DISTINCT ORDER BY keys must be output columns", ErrUnsupported)
		}
		keyIdx = append(keyIdx, idx)
	}

	shardSel := sel
	shardSel.Limit = pushedLimit(sel)
	shardSel.Offset = 0
	results, down, err := fanOut(ss, n, shardSel, exec)
	if err != nil {
		return nil, err
	}
	out := &rdbms.ResultSet{Plan: fmt.Sprintf("sharded fan-out(%d) + distinct merge", n)}
	served := false
	for _, rs := range results {
		if rs != nil {
			out.Columns = rs.Columns
			served = true
			break
		}
	}
	if !served {
		return finishPartial(ss, nil, down, false)
	}

	seen := map[string]bool{}
	emit := func(row rdbms.Tuple) {
		k := canonKey(row)
		if !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, row)
		}
	}
	if len(sel.OrderBy) > 0 {
		mergeSorted(rowStreams(results), func(a, b rdbms.Tuple) bool {
			return orderLess(a, b, keyIdx, sel.OrderBy)
		}, emit)
	} else {
		for _, rs := range results {
			if rs == nil {
				continue
			}
			for _, row := range rs.Rows {
				emit(row)
			}
		}
	}
	applyOffsetLimit(out, sel.Offset, sel.Limit)
	return finishPartial(ss, out, down, true)
}

// execShardedDistinctScan serves unordered DISTINCT over the extracted
// table: fetch each shard's raw projection (DISTINCT stripped — a shard
// cannot know which duplicate is globally first) with the entity column
// appended, entity-merge back into the single-engine stream, then dedup
// first-seen and apply OFFSET/LIMIT, mirroring the engine's pipeline.
// The LIMIT cannot be pushed down: l distinct rows may hide behind
// arbitrarily many raw ones.
func execShardedDistinctScan(ss *ShardedSystem, sel rdbms.SelectStmt, n int, exec shardExec) (*rdbms.ResultSet, error) {
	shardSel := sel
	shardSel.Distinct = false
	shardSel.Limit = -1
	shardSel.Offset = 0
	shardSel.Exprs = append(append([]rdbms.SelectExpr{}, sel.Exprs...),
		rdbms.SelectExpr{Expr: rdbms.ColumnRef{Column: "entity"}, Alias: "__k0"})
	results, down, err := fanOut(ss, n, shardSel, exec)
	if err != nil {
		return nil, err
	}
	out := &rdbms.ResultSet{Plan: fmt.Sprintf("sharded fan-out(%d) + distinct scan merge", n)}
	served := false
	baseN := 0
	for _, rs := range results {
		if rs != nil {
			baseN = len(rs.Columns) - 1
			out.Columns = rs.Columns[:baseN]
			served = true
			break
		}
	}
	if !served {
		return finishPartial(ss, nil, down, false)
	}
	seen := map[string]bool{}
	mergeByEntity(results, baseN, func(row rdbms.Tuple) {
		base := row[:baseN]
		k := canonKey(base)
		if !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, base)
		}
	})
	applyOffsetLimit(out, sel.Offset, sel.Limit)
	return finishPartial(ss, out, down, true)
}

// --- Aggregate recombination ----------------------------------------------

// aggPartial describes how one select-list position recombines.
type aggPartial struct {
	kind    byte // 'g' group key, 'l' literal, 'a' aggregate
	grpIdx  int  // for 'g': index into GroupBy / per-shard group columns
	lit     rdbms.Value
	fn      string // for 'a': COUNT, SUM, AVG, MIN, MAX
	partIdx int    // for 'a': index of the partial column block
}

// execShardedAgg recombines aggregates from per-shard partials so the
// merged values mirror the engine's aggState exactly: COUNT sums; SUM
// keeps integer typing iff every shard's partial is integer; AVG
// divides the global float sum by the global count; MIN/MAX compare
// partials (NULLs ignored, first shard wins ties, like first-in-scan).
// Merged groups emerge sorted by group key — a single engine emits
// first-seen scan order, which no shard can observe globally. HAVING
// and aggregate arithmetic are refused; entity-routed queries support
// them.
func execShardedAgg(ss *ShardedSystem, sel rdbms.SelectStmt, n int, exec shardExec) (*rdbms.ResultSet, error) {
	if sel.Having != nil {
		return nil, fmt.Errorf("%w: HAVING over cross-shard groups", ErrUnsupported)
	}
	if sel.Distinct {
		return nil, fmt.Errorf("%w: DISTINCT with aggregates", ErrUnsupported)
	}

	// Per-shard projection: the group-by columns first, then partial
	// blocks for each aggregate position.
	var shardExprs []rdbms.SelectExpr
	for gi, g := range sel.GroupBy {
		shardExprs = append(shardExprs, rdbms.SelectExpr{Expr: g, Alias: fmt.Sprintf("__g%d", gi)})
	}
	nGroup := len(sel.GroupBy)
	var plans []aggPartial
	partCols := 0
	var outNames []string
	for _, se := range sel.Exprs {
		if se.Star {
			return nil, fmt.Errorf("%w: * with aggregates", ErrUnsupported)
		}
		outNames = append(outNames, rdbms.SelectColumnName(se))
		switch x := se.Expr.(type) {
		case rdbms.AggExpr:
			p := aggPartial{kind: 'a', fn: x.Func, partIdx: partCols}
			switch x.Func {
			case "COUNT":
				shardExprs = append(shardExprs, rdbms.SelectExpr{Expr: x, Alias: fmt.Sprintf("__p%d", partCols)})
				partCols++
			case "SUM", "MIN", "MAX":
				shardExprs = append(shardExprs, rdbms.SelectExpr{Expr: x, Alias: fmt.Sprintf("__p%d", partCols)})
				partCols++
			case "AVG":
				shardExprs = append(shardExprs,
					rdbms.SelectExpr{Expr: rdbms.AggExpr{Func: "SUM", Arg: x.Arg}, Alias: fmt.Sprintf("__p%d", partCols)},
					rdbms.SelectExpr{Expr: rdbms.AggExpr{Func: "COUNT", Arg: x.Arg}, Alias: fmt.Sprintf("__p%d", partCols+1)})
				partCols += 2
			default:
				return nil, fmt.Errorf("%w: aggregate %s", ErrUnsupported, x.Func)
			}
			plans = append(plans, p)
		case rdbms.ColumnRef:
			gi := -1
			for i, g := range sel.GroupBy {
				if g.Column == x.Column && (x.Table == "" || g.Table == "" || g.Table == x.Table) {
					gi = i
					break
				}
			}
			if gi < 0 {
				return nil, fmt.Errorf("shard: column %s is neither aggregated nor grouped", x)
			}
			plans = append(plans, aggPartial{kind: 'g', grpIdx: gi})
		case rdbms.Literal:
			plans = append(plans, aggPartial{kind: 'l', lit: x.Val})
		default:
			return nil, fmt.Errorf("%w: aggregate arithmetic must be entity-routed", ErrUnsupported)
		}
	}

	shardSel := sel
	shardSel.Exprs = shardExprs
	shardSel.OrderBy = nil
	shardSel.Limit = -1
	shardSel.Offset = 0
	results, down, err := fanOut(ss, n, shardSel, exec)
	if err != nil {
		return nil, err
	}

	type group struct {
		keyVals  []rdbms.Value
		partials [][]rdbms.Value // one partial row block per contributing shard, shard order
	}
	groups := map[string]*group{}
	var order []string
	served := false
	for _, rs := range results {
		if rs == nil {
			continue
		}
		served = true
		for _, row := range rs.Rows {
			keyVals := row[:nGroup]
			k := canonKey(keyVals)
			gr, ok := groups[k]
			if !ok {
				gr = &group{keyVals: keyVals}
				groups[k] = gr
				order = append(order, k)
			}
			gr.partials = append(gr.partials, row[nGroup:])
		}
	}
	if !served {
		return finishPartial(ss, nil, down, false)
	}

	// Deterministic output order: groups sorted by key values.
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := groups[order[a]].keyVals, groups[order[b]].keyVals
		for i := range ka {
			c, ok := rdbms.Compare(ka[i], kb[i])
			if ok && c != 0 {
				return c < 0
			}
		}
		return order[a] < order[b]
	})

	out := &rdbms.ResultSet{Columns: outNames, Plan: fmt.Sprintf("sharded fan-out(%d) + partial aggregation", n)}
	for _, k := range order {
		gr := groups[k]
		row := make(rdbms.Tuple, len(plans))
		for i, p := range plans {
			switch p.kind {
			case 'g':
				row[i] = gr.keyVals[p.grpIdx]
			case 'l':
				row[i] = p.lit
			case 'a':
				row[i] = combineAgg(p, gr.partials)
			}
		}
		out.Rows = append(out.Rows, row)
	}

	// ORDER BY over the merged output: keys must resolve to output
	// columns (by alias/name or structural equality with a projection).
	if len(sel.OrderBy) > 0 {
		var keyIdx []int
		for _, k := range sel.OrderBy {
			idx := slices.Index(outNames, rdbms.SelectColumnName(rdbms.SelectExpr{Expr: k.Expr}))
			if idx < 0 {
				return nil, fmt.Errorf("%w: aggregate ORDER BY keys must be output columns", ErrUnsupported)
			}
			keyIdx = append(keyIdx, idx)
		}
		sort.SliceStable(out.Rows, func(a, b int) bool {
			return orderLess(out.Rows[a], out.Rows[b], keyIdx, sel.OrderBy)
		})
	}
	applyOffsetLimit(out, sel.Offset, sel.Limit)
	return finishPartial(ss, out, down, true)
}

// combineAgg folds per-shard partial blocks into one global aggregate,
// mirroring aggState.result's typing rules.
func combineAgg(p aggPartial, partials [][]rdbms.Value) rdbms.Value {
	switch p.fn {
	case "COUNT":
		var total int64
		for _, blk := range partials {
			total += blk[p.partIdx].I
		}
		return rdbms.NewInt(total)
	case "SUM":
		var sumI int64
		var sumF float64
		isInt := true
		seen := false
		for _, blk := range partials {
			v := blk[p.partIdx]
			if v.IsNull() {
				continue
			}
			seen = true
			if v.Type == rdbms.TInt {
				sumI += v.I
			} else {
				isInt = false
			}
			f, _ := v.AsFloat()
			sumF += f
		}
		if !seen {
			return rdbms.Null()
		}
		if isInt {
			return rdbms.NewInt(sumI)
		}
		return rdbms.NewFloat(sumF)
	case "AVG":
		var count int64
		var sumF float64
		for _, blk := range partials {
			count += blk[p.partIdx+1].I
			if s := blk[p.partIdx]; !s.IsNull() {
				f, _ := s.AsFloat()
				sumF += f
			}
		}
		if count == 0 {
			return rdbms.Null()
		}
		return rdbms.NewFloat(sumF / float64(count))
	case "MIN", "MAX":
		best := rdbms.Null()
		for _, blk := range partials {
			v := blk[p.partIdx]
			if v.IsNull() {
				continue
			}
			if best.IsNull() {
				best = v
				continue
			}
			if c, ok := rdbms.Compare(v, best); ok {
				if (p.fn == "MIN" && c < 0) || (p.fn == "MAX" && c > 0) {
					best = v
				}
			}
		}
		return best
	}
	return rdbms.Null()
}

package rdbms

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the column-pruned scan path: the pruned decoder against
// DecodeTuple, and every SELECT shape the pruning touches against a
// full-decode reference, statically and under concurrent writers.

func randValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Null()
	case 1:
		return NewInt(rng.Int63() - rng.Int63())
	case 2:
		if rng.Intn(8) == 0 {
			return NewFloat(math.Inf(1 - 2*rng.Intn(2)))
		}
		return NewFloat(rng.NormFloat64() * 1e6)
	case 3:
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		return NewString(string(b))
	}
	return NewBool(rng.Intn(2) == 0)
}

func randColSet(rng *rand.Rand, arity int) colSet {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return make(colSet, rng.Intn(arity+2)) // marks nothing
	}
	cols := make(colSet, rng.Intn(arity+2))
	for i := range cols {
		cols[i] = rng.Intn(2) == 0
	}
	return cols
}

// sameValue compares two values by their encodings (NaN-safe, type-exact).
func sameValue(a, b Value) bool {
	return bytes.Equal(encodeValue(nil, a), encodeValue(nil, b))
}

// checkDecodeCols asserts the pruned decoders agree with DecodeTuple on
// buf: all fail or all succeed; tupleArity returns the arity; and
// decodeTupleCols (sharing strings with prev) extends dst by the arity
// with the marked columns decoded and the rest zero, leaving the prefix
// of dst alone.
func checkDecodeCols(t *testing.T, buf []byte, cols colSet, prev Tuple) {
	t.Helper()
	want, wantErr := DecodeTuple(buf)
	arity, err := tupleArity(buf)
	if (err != nil) != (wantErr != nil) || (err == nil && arity != len(want)) {
		t.Fatalf("buf %x: tupleArity = %d, %v; DecodeTuple arity %d, err %v", buf, arity, err, len(want), wantErr)
	}
	prefix := []Value{NewInt(7), NewString("keep")}
	got, err := decodeTupleCols(append([]Value(nil), prefix...), buf, cols, prev)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("buf %x cols %v: pruned err %v, DecodeTuple err %v", buf, cols, err, wantErr)
	}
	if err != nil {
		return
	}
	if !sameValue(got[0], prefix[0]) || !sameValue(got[1], prefix[1]) {
		t.Fatalf("buf %x: prefix clobbered: %v", buf, got[:2])
	}
	got = got[len(prefix):]
	if len(got) != len(want) {
		t.Fatalf("buf %x cols %v: arity %d, want %d", buf, cols, len(got), len(want))
	}
	for i := range want {
		exp := Value{}
		if cols.has(i) {
			exp = want[i]
		}
		if !sameValue(got[i], exp) {
			t.Fatalf("buf %x cols %v: col %d = %#v, want %#v", buf, cols, i, got[i], exp)
		}
	}
}

// TestDecodeTupleColsMatchesDecodeTuple is the pruned decoder's property
// test: random tuples of every type under random column sets decode as
// DecodeTuple does, and every truncation and random corruption of them
// fails exactly where DecodeTuple fails, without panicking.
func TestDecodeTupleColsMatchesDecodeTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		tup := make(Tuple, rng.Intn(9))
		for i := range tup {
			tup[i] = randValue(rng)
		}
		enc := EncodeTuple(tup)
		cols := randColSet(rng, len(tup))
		// prev: none, the same row (every string shared), or a row
		// sharing some values.
		prev := [3]Tuple{nil, tup, tup.Clone()}
		for i := range prev[2] {
			if rng.Intn(2) == 0 {
				prev[2][i] = randValue(rng)
			}
		}
		for _, p := range prev {
			checkDecodeCols(t, enc, cols, p)
		}
		for k := 0; k < len(enc); k++ {
			checkDecodeCols(t, enc[:k], cols, prev[rng.Intn(3)])
		}
		for k := 0; k < 4; k++ {
			bad := append([]byte(nil), enc...)
			bad[rng.Intn(len(bad))] = byte(rng.Intn(256))
			checkDecodeCols(t, bad, randColSet(rng, len(tup)), prev[rng.Intn(3)])
		}
		garbage := make([]byte, rng.Intn(64))
		rng.Read(garbage)
		checkDecodeCols(t, garbage, cols, nil)
	}
}

// FuzzDecodeTuple feeds arbitrary bytes to DecodeTuple and to the pruned
// decoders under the column set encoded by mask: none may panic, they
// must agree on every input, and a decoded tuple must survive an
// encode/decode round trip. The seed corpus lives in testdata/fuzz.
func FuzzDecodeTuple(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, mask uint8) {
		var cols colSet
		if mask&0x80 == 0 {
			cols = make(colSet, 7)
			for i := range cols {
				cols[i] = mask&(1<<i) != 0
			}
		}
		checkDecodeCols(t, data, cols, nil)
		tup, err := DecodeTuple(data)
		if err != nil {
			return
		}
		checkDecodeCols(t, data, cols, tup) // every string shareable
		enc := EncodeTuple(tup)
		again, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if !bytes.Equal(EncodeTuple(again), enc) {
			t.Fatalf("round trip of %x changed the tuple", data)
		}
	})
}

// TestDecodeTupleAllocationBound: a 5-byte record whose header claims
// 1<<20 columns must fail without allocating for the claimed arity
// (sizing the result from the header alone costs ~48 MB per call). The
// same input is a FuzzDecodeTuple seed (arity_claim_past_input).
func TestDecodeTupleAllocationBound(t *testing.T) {
	buf := []byte{0x00, 0x00, 0x10, 0x00, 0x00} // arity 1<<20, then one NULL
	const runs = 10
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < runs; i++ {
		if _, err := DecodeTuple(buf); err == nil {
			t.Fatal("decoded a record that claims more columns than it holds")
		}
	}
	runtime.ReadMemStats(&ms1)
	if per := (ms1.TotalAlloc - ms0.TotalAlloc) / runs; per > 4<<10 {
		t.Fatalf("DecodeTuple allocated %d bytes per call on a 5-byte input", per)
	}
}

// TestDecodePageMatchesDecodeTuple decodes pages of 100+ slots holding
// tombstones and rows of mixed arity (the engine writes one arity per
// table, but the decoder must not depend on it) under random column
// sets, and checks every row against DecodeTuple of its record.
func TestDecodePageMatchesDecodeTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		p := newSlottedPage(make([]byte, PageSize))
		var recs [][]byte
		for {
			tup := make(Tuple, rng.Intn(5))
			for i := range tup {
				tup[i] = randValue(rng)
				if tup[i].Type == TString && len(recs) > 0 && rng.Intn(2) == 0 {
					tup[i] = NewString("shared") // equal strings across rows
				}
			}
			rec := EncodeTuple(tup)
			if _, ok := p.insert(rec, nil); !ok {
				break
			}
			recs = append(recs, rec)
		}
		for i := range recs {
			if rng.Intn(4) == 0 {
				p.del(uint16(i))
				recs[i] = nil
			}
		}
		cols := randColSet(rng, 4)
		rows, err := decodePage(9, p, cols, []heapRow{{}})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) <= 64 {
			t.Fatalf("page holds %d slots, want more than 64", len(recs))
		}
		rows = rows[1:] // decodePage appends after what rows held
		for _, r := range rows {
			want, err := DecodeTuple(recs[r.rid.Slot])
			if err != nil || r.rid.Page != 9 || len(r.t) != len(want) || cap(r.t) != len(r.t) {
				t.Fatalf("slot %d: got %v (cap %d), want %v (%v)", r.rid.Slot, r.t, cap(r.t), want, err)
			}
			for i := range want {
				exp := Value{}
				if cols.has(i) {
					exp = want[i]
				}
				if !sameValue(r.t[i], exp) {
					t.Fatalf("slot %d col %d: got %#v, want %#v (cols %v)", r.rid.Slot, i, r.t[i], exp, cols)
				}
			}
			recs[r.rid.Slot] = nil
		}
		for slot, rec := range recs {
			if rec != nil {
				t.Fatalf("live slot %d missing from the decoded page", slot)
			}
		}
	}
}

// fullDecode wraps a readSource so its scans decode every column: the
// reference the pruned scans must match byte for byte.
type fullDecode struct{ readSource }

func (f fullDecode) scanCols(table string, _ colSet, fn func(RID, Tuple) bool) error {
	return f.readSource.scanCols(table, nil, fn)
}

// lateScanDB builds table m (every column type, ~75 rows a page, so
// pages have more than 64 slots) with numbers that sum exactly in any
// order, plus an index on id for the index paths.
func lateScanDB(t *testing.T, rows int) *DB {
	t.Helper()
	db, err := Open(NewMemPager(), NewMemWAL(), Options{BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE m (id INT, grp STRING, num FLOAT, flag BOOL, note STRING)")
	mustExec(t, db, "CREATE INDEX ON m (id)")
	rng := rand.New(rand.NewSource(int64(rows)))
	tx := db.Begin()
	for i := 0; i < rows; i++ {
		if _, err := tx.Insert("m", lateScanRow(rng, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

func lateScanRow(rng *rand.Rand, id int64) Tuple {
	note := Null()
	if rng.Intn(3) > 0 {
		note = NewString(fmt.Sprintf("n%d", rng.Intn(50)))
	}
	return Tuple{
		NewInt(id),
		NewString(fmt.Sprintf("g%d", rng.Intn(9))),
		NewFloat(float64(rng.Intn(40000)) / 4), // quarters: exact sums
		NewBool(rng.Intn(2) == 0),
		note,
	}
}

// Result orders of lateScanQueries: fixed by the query, free (compared
// as a multiset when writers can reorder a scan), or a scan-order prefix
// (unordered LIMIT: compared only without writers).
const (
	orderFixed = iota
	orderFree
	orderScan
)

// lateScanQueries are the SELECT shapes column pruning changes.
var lateScanQueries = []struct {
	sql   string
	order int
}{
	{"SELECT COUNT(*) FROM m", orderFixed},
	{"SELECT COUNT(*) FROM m WHERE num > 5000", orderFixed},
	{"SELECT COUNT(*), COUNT(note) FROM m WHERE flag", orderFixed},
	{"SELECT SUM(num), AVG(num), MIN(num), MAX(num) FROM m", orderFixed},
	{"SELECT MIN(grp), MAX(note), SUM(id) FROM m WHERE note IS NOT NULL", orderFixed},
	{"SELECT SUM(num) / COUNT(*) AS mean FROM m WHERE num BETWEEN 100 AND 9000", orderFixed},
	{"SELECT COUNT(*) FROM m HAVING COUNT(*) > 0", orderFixed},
	{"SELECT id, num FROM m WHERE num > 9800", orderFree},
	{"SELECT id FROM m WHERE NOT flag AND note = 'n7'", orderFree},
	{"SELECT id, grp, num FROM m ORDER BY num DESC, id LIMIT 7", orderFixed},
	{"SELECT grp AS g, num FROM m WHERE flag ORDER BY num, id LIMIT 5 OFFSET 2", orderFixed},
	{"SELECT id FROM m ORDER BY num DESC, id LIMIT 6", orderFixed},
	{"SELECT grp FROM m GROUP BY grp ORDER BY MAX(num) DESC, grp", orderFixed},
	{"SELECT id, num * 2 AS twice FROM m ORDER BY twice DESC, id LIMIT 4", orderFixed},
	{"SELECT * FROM m", orderFree},
	{"SELECT * FROM m WHERE grp = 'g3' ORDER BY id LIMIT 9", orderFixed},
	{"SELECT grp, COUNT(*), SUM(num), MAX(id) FROM m GROUP BY grp ORDER BY grp", orderFixed},
	{"SELECT grp, COUNT(*) AS n FROM m WHERE flag GROUP BY grp HAVING COUNT(*) > 3 ORDER BY n DESC, grp LIMIT 4", orderFixed},
	{"SELECT note, MIN(num) FROM m GROUP BY note ORDER BY note", orderFixed},
	{"SELECT DISTINCT grp FROM m", orderFree},
	{"SELECT id FROM m LIMIT 3", orderScan},
	{"SELECT id, note FROM m WHERE id >= 40 AND id < 60 AND flag", orderFree},
	{"SELECT COUNT(*) FROM m WHERE nosuch > 1", orderFixed},
}

// renderResult renders a result (or its error) for byte comparison;
// unordered results are sorted first.
func renderResult(rs *ResultSet, err error, ordered bool) string {
	if err != nil {
		return "error: " + err.Error()
	}
	lines := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		var b strings.Builder
		for _, v := range r {
			b.Write(encodeValue(nil, v))
		}
		lines[i] = fmt.Sprintf("%q", b.String())
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(rs.Columns, ",") + " | " + rs.Plan + "\n" + strings.Join(lines, "\n")
}

// comparePruned runs every query through src and through its full-decode
// reference and fails on the first difference. With writers running, a
// scan's row order is not repeatable, so only orders the query fixes are
// compared.
func comparePruned(t *testing.T, src readSource, where string, writers bool) {
	t.Helper()
	for _, q := range lateScanQueries {
		if writers && q.order == orderScan {
			continue
		}
		stmt, err := ParseSQL(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		s := stmt.(SelectStmt)
		ordered := q.order == orderFixed || !writers
		rs, err := execSelectSrc(src, s)
		got := renderResult(rs, err, ordered)
		rs, err = execSelectSrc(fullDecode{src}, s)
		want := renderResult(rs, err, ordered)
		if got != want {
			t.Fatalf("%s: %s\npruned:\n%s\nfull decode:\n%s", where, q.sql, got, want)
		}
	}
}

// TestPrunedScanEquivalence: with no concurrent writers, every query
// returns byte-identical results, in the same order, through the pruned
// and the full-decode scans, on both the snapshot and the 2PL route. It
// also checks COUNT(*) and SUM against a direct fold over a full scan.
func TestPrunedScanEquivalence(t *testing.T) {
	db := lateScanDB(t, 2500)
	// Churn before the snapshot: tombstones and slot reuse on full pages.
	mustExec(t, db, "DELETE FROM m WHERE id >= 300 AND id < 420")
	mustExec(t, db, "UPDATE m SET note = 'a much longer note that moves the row' WHERE id >= 1000 AND id < 1010")
	mustExec(t, db, "INSERT INTO m (id, grp, num, flag, note) VALUES (9000, 'g1', 0.25, true, NULL)")

	sn := db.BeginSnapshot()
	defer sn.Close()
	comparePruned(t, sn, "snapshot", false)
	tx := db.Begin()
	comparePruned(t, tx, "txn", false)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The streaming aggregates against a direct fold over a full scan.
	type fold struct {
		n     int64
		sum   float64
		maxID int64
	}
	var all fold
	byGrp := map[string]*fold{}
	if err := sn.Scan("m", func(_ RID, tup Tuple) bool {
		g := byGrp[tup[1].S]
		if g == nil {
			g = &fold{maxID: -1}
			byGrp[tup[1].S] = g
		}
		for _, f := range []*fold{&all, g} {
			f.n++
			f.sum += tup[2].F
			f.maxID = max(f.maxID, tup[0].I)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	rs, err := sn.Query("SELECT COUNT(*), SUM(num) FROM m")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].I != all.n || rs.Rows[0][1].F != all.sum {
		t.Fatalf("COUNT/SUM = %v, full scan folds to %d/%v", rs.Rows[0], all.n, all.sum)
	}
	rs, err = sn.Query("SELECT grp, COUNT(*), SUM(num), MAX(id) FROM m GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != len(byGrp) {
		t.Fatalf("%d groups, full scan folds to %d", len(rs.Rows), len(byGrp))
	}
	for _, r := range rs.Rows {
		g := byGrp[r[0].S]
		if g == nil || r[1].I != g.n || r[2].F != g.sum || r[3].I != g.maxID {
			t.Fatalf("group %v, full scan folds to %+v", r, g)
		}
	}
}

// collectScan runs one snapshot scan with cols and returns its rows by
// RID, failing on a RID seen twice.
func collectScan(t *testing.T, sn *Snap, table string, cols colSet) map[RID]Tuple {
	t.Helper()
	out := map[RID]Tuple{}
	err := sn.scanCols(table, cols, func(rid RID, tup Tuple) bool {
		if _, dup := out[rid]; dup {
			t.Errorf("row %v emitted twice", rid)
		}
		out[rid] = tup
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPrunedSnapScanExactlyOnce pins a snapshot over pages of 180+
// slots, then commits deletes, in-place updates and row moves at slots
// around the 64-slot bitset word boundaries. The pruned snapshot scan
// must still return exactly the pre-snapshot rows, each once, with the
// marked column intact and the unmarked ones zero.
func TestPrunedSnapScanExactlyOnce(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE narrow (k INT, pad STRING)")
	var rids []RID
	tx := db.Begin()
	for i := 0; i < 700; i++ {
		rid, err := tx.Insert("narrow", Tuple{NewInt(int64(i)), NewString("")})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if rids[180].Page != rids[0].Page {
		t.Fatalf("want 180+ slots on the first page, got a page break before row 180")
	}
	sn := db.BeginSnapshot()
	defer sn.Close()
	want := map[RID]int64{}
	for i, rid := range rids {
		want[rid] = int64(i)
	}

	tx = db.Begin()
	for _, i := range []int{0, 62, 63, 64, 65, 127, 128, 129, 170, 250, 699} {
		if err := tx.Delete("narrow", rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{1, 61, 66, 126, 130, 171, 300} {
		if _, err := tx.Update("narrow", rids[i], Tuple{NewInt(int64(-i)), NewString("")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{2, 60, 67, 125, 131} { // grow past the page's free space: moves
		if _, err := tx.Update("narrow", rids[i], Tuple{NewInt(int64(i)), NewString(strings.Repeat("x", 300))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ { // reuse the freed slots
		if _, err := tx.Insert("narrow", Tuple{NewInt(int64(10000 + i)), NewString("")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	for _, cols := range []colSet{nil, {true}, {true, false}, noCols} {
		got := collectScan(t, sn, "narrow", cols)
		if len(got) != len(want) {
			t.Fatalf("cols %v: %d rows, want %d", cols, len(got), len(want))
		}
		for rid, tup := range got {
			k, ok := want[rid]
			if !ok {
				t.Fatalf("cols %v: row %v not live at the snapshot", cols, rid)
			}
			wantK := Value{}
			if cols.has(0) {
				wantK = NewInt(k)
			}
			if !sameValue(tup[0], wantK) {
				t.Fatalf("cols %v: row %v k = %v, want %v", cols, rid, tup[0], wantK)
			}
			if !cols.has(1) && !sameValue(tup[1], Value{}) {
				t.Fatalf("cols %v: unmarked column not zero: %v", cols, tup[1])
			}
		}
	}
	if n, err := db.Table("narrow").Heap.Count(); err != nil || n != 700-11+40 {
		t.Fatalf("heap Count = %d, %v; want %d", n, err, 700-11+40)
	}
}

// TestPrunedScanEquivalenceConcurrentWriters races writers (inserts,
// deletes, in-place and moving updates, some aborted) against readers
// that, at one snapshot, run every query through the pruned and the
// full-decode scans, and check that a no-column scan returns each
// snapshot row exactly once. Writers reorder a snapshot's scan (a row
// deleted mid-scan moves from heap order to the chain tail), so
// results whose order the query leaves open compare as multisets.
func TestPrunedScanEquivalenceConcurrentWriters(t *testing.T) {
	db := lateScanDB(t, 1500)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failure atomic.Value
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			next := 100000 * seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin()
				err := func() error {
					var err error
					switch rng.Intn(4) {
					case 0:
						next++
						_, err = tx.Insert("m", lateScanRow(rng, next))
					case 1:
						_, err = tx.Exec(fmt.Sprintf("DELETE FROM m WHERE id = %d", rng.Intn(1500)))
					case 2:
						_, err = tx.Exec(fmt.Sprintf("UPDATE m SET num = %d WHERE id = %d", rng.Intn(10000), rng.Intn(1500)))
					default:
						_, err = tx.Exec(fmt.Sprintf("UPDATE m SET note = '%s' WHERE id = %d", strings.Repeat("z", rng.Intn(200)), rng.Intn(1500)))
					}
					return err
				}()
				if err == nil && rng.Intn(5) > 0 {
					err = tx.Commit()
				} else {
					tx.Abort()
				}
				if err != nil && !errors.Is(err, ErrDeadlock) {
					failure.Store(err)
					return
				}
			}
		}(int64(w) + 1)
	}
	for r := 0; r < 12; r++ {
		sn := db.BeginSnapshot()
		comparePruned(t, sn, fmt.Sprintf("snapshot %d", r), true)
		full := collectScan(t, sn, "m", nil)
		none := collectScan(t, sn, "m", noCols)
		if len(none) != len(full) {
			t.Fatalf("snapshot %d: no-column scan has %d rows, full scan %d", r, len(none), len(full))
		}
		for rid := range full {
			if _, ok := none[rid]; !ok {
				t.Fatalf("snapshot %d: no-column scan missed %v", r, rid)
			}
		}
		sn.Close()
	}
	close(stop)
	wg.Wait()
	if err, _ := failure.Load().(error); err != nil {
		t.Fatal(err)
	}
}

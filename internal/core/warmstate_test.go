package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/synth"
	"repro/internal/uql"
)

const warmGenProgram = `
	EXTRACT temperature FROM docs USING city KIND city INTO temps;
	STORE temps INTO TABLE extracted;
`

func TestWarmStartRestoresCatalogAndQueue(t *testing.T) {
	dir := t.TempDir() + "/warm"
	corpus, _ := synth.Generate(synth.Config{
		Seed: 11, Cities: 12, People: 4, Filler: 10, MentionsPerPerson: 2,
	})

	// "Process A": generate, plan incremental work, extract part of it,
	// warm the cache, save.
	a, err := New(Config{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Generate(context.Background(), warmGenProgram, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := a.PlanIncremental(context.Background(), "city", []string{"population", "founded"}, 4); err != nil {
		t.Fatal(err)
	}
	a.Demand(context.Background(), "founded", 2) // non-trivial priorities must survive the restart
	if _, err := a.ExtractPending(context.Background(), "city", 3); err != nil {
		t.Fatal(err)
	}
	warmCat, err := a.Catalog(context.Background()) // warms the cache
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SaveWarmState(dir); err != nil {
		t.Fatal(err)
	}
	wantPending := a.PendingTasks()
	wantByAttr := a.PendingByAttribute()
	wantCovPop := a.Coverage("population")

	// "Process B": replays the same deterministic generation and the same
	// extraction batch (so the table matches), then restores the warm
	// catalog and the remaining queue from the snapshot.
	b, err := New(Config{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Generate(context.Background(), warmGenProgram, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := b.PlanIncremental(context.Background(), "city", []string{"population", "founded"}, 4); err != nil {
		t.Fatal(err)
	}
	b.Demand(context.Background(), "founded", 2)
	if _, err := b.ExtractPending(context.Background(), "city", 3); err != nil {
		t.Fatal(err)
	}
	warm, err := b.LoadWarmState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("warm state refused despite identical table state")
	}

	// The restored catalog must equal both the saved one and a fresh
	// full-scan rebuild of B's table.
	gotCat, err := b.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCat, warmCat) {
		t.Fatalf("restored catalog differs from saved:\ngot  %+v\nwant %+v", gotCat, warmCat)
	}
	assertCatalogFresh(t, b, "after warm load")

	// Queue warm state: same pending count, same per-attribute breakdown,
	// same coverage accounting.
	if got := b.PendingTasks(); got != wantPending {
		t.Fatalf("pending tasks: %d, want %d", got, wantPending)
	}
	if got := b.PendingByAttribute(); !reflect.DeepEqual(got, wantByAttr) {
		t.Fatalf("pending by attribute: %v, want %v", got, wantByAttr)
	}
	if got := b.Coverage("population"); got != wantCovPop {
		t.Fatalf("coverage: %v, want %v", got, wantCovPop)
	}

	// The restored queue must actually run: draining it extracts the same
	// attributes A would have extracted, in the same priority order.
	if _, err := b.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	if b.PendingTasks() != 0 {
		t.Fatal("restored queue did not drain")
	}
	assertCatalogFresh(t, b, "after draining restored queue")

	// Guided queries serve from the restored warm cache.
	ans, err := b.AskGuided(context.Background(), "average temperature Madison Wisconsin", 3)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Answer == nil || len(ans.Answer.Rows) == 0 {
		t.Fatal("no guided answer from warm-started system")
	}
}

// TestWarmStartEqualsColdRebuild: the warm-restored catalog must be
// byte-identical to what a cold rebuild computes — the correctness bar
// for skipping the rebuild scan.
func TestWarmStartEqualsColdRebuild(t *testing.T) {
	dir := t.TempDir() + "/warm"
	corpus, _ := synth.Generate(synth.Config{
		Seed: 7, Cities: 10, People: 3, Filler: 5, MentionsPerPerson: 2,
	})
	a, err := New(Config{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Generate(context.Background(), warmGenProgram, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveWarmState(dir); err != nil {
		t.Fatal(err)
	}

	b, err := New(Config{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Generate(context.Background(), warmGenProgram, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	warm, err := b.LoadWarmState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("warm state refused")
	}
	warmed, err := b.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := b.RefreshCatalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmed, cold) {
		t.Fatalf("warm catalog != cold rebuild\nwarm: %+v\ncold: %+v", warmed, cold)
	}
}

// TestWarmStartStaleRowCount: a snapshot saved before extra rows landed
// must be refused (row-count validation), leaving the system cold but
// correct.
func TestWarmStartStaleRowCount(t *testing.T) {
	dir := t.TempDir() + "/warm"
	corpus, _ := synth.Generate(synth.Config{
		Seed: 7, Cities: 10, People: 3, Filler: 5, MentionsPerPerson: 2,
	})
	a, err := New(Config{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Generate(context.Background(), warmGenProgram, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveWarmState(dir); err != nil {
		t.Fatal(err)
	}

	// "Process B" materializes one extra row before loading.
	b, err := New(Config{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Generate(context.Background(), warmGenProgram, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SQL(context.Background(), "INSERT INTO extracted (entity, attribute, qualifier, value, num, conf) VALUES ('Gotham', 'mayor', '', 'Bruce', NULL, 0.5)"); err != nil {
		t.Fatal(err)
	}
	warm, err := b.LoadWarmState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("stale snapshot (row count mismatch) was accepted")
	}
	// Cold path still answers correctly.
	assertCatalogFresh(t, b, "cold after stale refusal")
	cat, _ := b.Catalog(context.Background())
	found := false
	for _, e := range cat.Entities {
		if e == "Gotham" {
			found = true
		}
	}
	if !found {
		t.Fatal("cold rebuild missed the extra row")
	}
}

// TestWarmStartStaleEpoch: within one process, writing after a save makes
// the live epoch newer than the snapshot; loading it back must be refused
// even if the row count happens to match again.
func TestWarmStartStaleEpoch(t *testing.T) {
	dir := t.TempDir() + "/warm"
	s, _ := newSystem(t, 8, 2, 0)
	if _, err := s.Generate(context.Background(), warmGenProgram, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveWarmState(dir); err != nil {
		t.Fatal(err)
	}
	// Delete one row and insert another: same row count, different table.
	cat, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Entities) == 0 {
		t.Fatal("no entities")
	}
	if _, err := s.SQL(context.Background(), "DELETE FROM extracted WHERE entity = '"+cat.Entities[0]+"' AND qualifier = 'March'"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SQL(context.Background(), "INSERT INTO extracted (entity, attribute, qualifier, value, num, conf) VALUES ('Gotham', 'mayor', '', 'Bruce', NULL, 0.5)"); err != nil {
		t.Fatal(err)
	}
	warm, err := s.LoadWarmState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("snapshot older than the live epoch was accepted")
	}
	assertCatalogFresh(t, s, "cold after epoch refusal")
}

// TestWarmStartLatestSnapshotWins: repeated saves append records; the
// load must pick the newest epoch.
func TestWarmStartLatestSnapshotWins(t *testing.T) {
	dir := t.TempDir() + "/warm"
	s, _ := newSystem(t, 8, 2, 0)
	if _, err := s.Generate(context.Background(), warmGenProgram, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveWarmState(dir); err != nil {
		t.Fatal(err)
	}
	// More data, then a second snapshot into the same dir.
	if err := s.PlanIncremental(context.Background(), "city", []string{"population"}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveWarmState(dir); err != nil {
		t.Fatal(err)
	}
	warm, err := s.LoadWarmState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("latest snapshot refused")
	}
	assertCatalogFresh(t, s, "after loading latest of two snapshots")
	cat, _ := s.Catalog(context.Background())
	has := false
	for _, a := range cat.Attributes {
		if a == "population" {
			has = true
		}
	}
	if !has {
		t.Fatal("restored the older snapshot (population missing)")
	}
}

// TestCatalogSnapshotImmuneToLaterDeltas: a Catalog() snapshot handed to
// a caller is read-only; later incremental writes (which now feed the
// memoized reformulator deltas in place) must not add keys to the
// snapshot's Qualifiers map (regression for a review finding).
func TestCatalogSnapshotImmuneToLaterDeltas(t *testing.T) {
	s, _ := newSystem(t, 8, 2, 0)
	if _, err := s.Generate(context.Background(), warmGenProgram, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	// Warm the memoized reformulator so later addRow calls mutate it in
	// place, then hold a snapshot.
	if _, err := s.AskGuided(context.Background(), "average temperature Madison Wisconsin", 3); err != nil {
		t.Fatal(err)
	}
	held, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	heldAttrs := len(held.Qualifiers)

	// A new attribute with a qualifier lands through the cache-maintained
	// path (materialize, NOT System.SQL — that would invalidate the cache
	// and sidestep the in-place delta this test guards).
	s.Env.Relations["inject"] = []uql.Row{{
		Entity: "Gotham", Attribute: "rainfall", Qualifier: "March",
		Value: "12", Conf: 0.9,
	}}
	if err := s.MaterializeRelation(context.Background(), "inject"); err != nil {
		t.Fatal(err)
	}
	if len(held.Qualifiers) != heldAttrs {
		t.Fatalf("held snapshot's Qualifiers map grew from %d to %d attributes", heldAttrs, len(held.Qualifiers))
	}
	// The live catalog, in contrast, must see the delta.
	cur, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Qualifiers["rainfall"]; !ok {
		t.Fatal("live catalog missed the rainfall qualifier delta")
	}
	assertCatalogFresh(t, s, "after deltas behind a held snapshot")
}

// TestWarmStartMissingDirIsCold: no snapshot directory means a cold open,
// not an error.
func TestWarmStartMissingDirIsCold(t *testing.T) {
	s, _ := newSystem(t, 6, 2, 0)
	warm, err := s.LoadWarmState(t.TempDir() + "/nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("warm load from a missing dir")
	}
}

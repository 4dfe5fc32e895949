package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rdbms"
	"repro/internal/uql"
)

// assertCatalogFresh checks that the cached Catalog() equals a fresh
// full-scan rebuild (CatalogScan), the cache-correctness invariant.
func assertCatalogFresh(t *testing.T, s *System, when string) {
	t.Helper()
	cached, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatalf("%s: Catalog: %v", when, err)
	}
	fresh, err := s.RefreshCatalog(context.Background())
	if err != nil {
		t.Fatalf("%s: CatalogScan: %v", when, err)
	}
	if !reflect.DeepEqual(cached, fresh) {
		t.Fatalf("%s: cached catalog diverged from full scan\ncached: %+v\nfresh:  %+v", when, cached, fresh)
	}
}

func TestCatalogCacheMatchesFullScan(t *testing.T) {
	s, _ := newSystem(t, 10, 4, 0)
	assertCatalogFresh(t, s, "empty table")

	// After Generate (UQL STORE writes bypass materialize and must
	// invalidate the cache).
	if _, err := s.Generate(context.Background(), `
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE extracted;
	`, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "after Generate")

	// After incremental extraction (materialize maintains the cache in
	// place — no invalidation, so this exercises addRow).
	if err := s.PlanIncremental(context.Background(), "city", []string{"population", "founded"}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "after ExtractPending")

	// After a human correction (in-place value rewrite).
	cat, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Entities) == 0 {
		t.Fatal("no entities extracted")
	}
	ent := cat.Entities[0]
	var qual string
	if quals := cat.Qualifiers["temperature"]; len(quals) > 0 {
		qual = quals[0]
	}
	if err := s.CorrectValue(context.Background(), "alice", ent, "temperature", qual, "12.5"); err != nil {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "after CorrectValue")

	// After direct SQL writes through the System facade.
	if _, err := s.SQL(context.Background(), "INSERT INTO extracted (entity, attribute, qualifier, value, num, conf) VALUES ('Metropolis', 'mayor', '', 'Jane Doe', NULL, 0.9)"); err != nil {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "after SQL INSERT")
	cached, _ := s.Catalog(context.Background())
	found := false
	for _, e := range cached.Entities {
		if e == "Metropolis" {
			found = true
		}
	}
	if !found {
		t.Fatal("SQL INSERT did not surface in the catalog")
	}

	if _, err := s.SQL(context.Background(), "DELETE FROM extracted WHERE entity = 'Metropolis'"); err != nil {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "after SQL DELETE")
	cached, _ = s.Catalog(context.Background())
	for _, e := range cached.Entities {
		if e == "Metropolis" {
			t.Fatal("deleted entity still in catalog")
		}
	}
}

func TestCatalogCacheReusesMemoizedSnapshot(t *testing.T) {
	s, _ := newSystem(t, 6, 2, 0)
	if _, err := s.Generate(context.Background(), `
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE extracted;
	`, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	a, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Read-only streak: the memoized snapshot (and its slices) is reused.
	if len(a.Entities) > 0 && &a.Entities[0] != &b.Entities[0] {
		t.Fatal("catalog snapshot rebuilt despite no writes")
	}
}

// TestCatalogCacheSurvivesRefreshChanged: RefreshChanged deletes an
// entity's rows before re-extracting; the warm cache cannot un-see rows,
// so the refresh must invalidate it (regression for a review finding).
func TestCatalogCacheSurvivesRefreshChanged(t *testing.T) {
	s, _ := newSystem(t, 8, 0, 0)
	if err := s.PlanIncremental(context.Background(), "city", []string{"temperature", "population"}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExtractPending(context.Background(), "city", 0); err != nil {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "warm before refresh") // warms the cache
	// Day-2 crawl: Madison's article becomes unextractable prose, so the
	// refresh deletes its rows and materializes nothing for it.
	s.CommitSnapshot(map[string]string{"Madison, Wisconsin": "Nothing structured remains here."})
	changed, err := s.RefreshChanged("city")
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 {
		t.Fatalf("changed: %v", changed)
	}
	assertCatalogFresh(t, s, "after RefreshChanged")
	cat, _ := s.Catalog(context.Background())
	for _, e := range cat.Entities {
		if e == "Madison, Wisconsin" {
			t.Fatal("deleted entity still served from warm catalog cache")
		}
	}
}

// TestCatalogCacheInvalidatedOnGenerateError: UQL ops run sequentially
// and each STORE commits its own transaction, so a program that stores
// then errors must still invalidate the cache (regression for a review
// finding).
func TestCatalogCacheInvalidatedOnGenerateError(t *testing.T) {
	s, _ := newSystem(t, 6, 0, 0)
	assertCatalogFresh(t, s, "warm on empty table") // warms the cache
	_, err := s.Generate(context.Background(), `
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE extracted;
		STORE no_such_relation INTO TABLE extracted;
	`, uql.Options{})
	if err == nil {
		t.Fatal("expected error from STORE of unknown relation")
	}
	// The first STORE committed rows; the cached catalog must see them.
	assertCatalogFresh(t, s, "after failed Generate")
	cat, _ := s.Catalog(context.Background())
	if len(cat.Entities) == 0 {
		t.Fatal("committed STORE rows invisible to catalog after failed Generate")
	}
}

// TestCatalogCacheSurvivesMalformedSQL: text that does not parse changes
// nothing, so it must come back as the parse error and leave the
// published catalog in place; invalidating it would make the next
// AskGuided pay a full-table rebuild scan for a typo.
func TestCatalogCacheSurvivesMalformedSQL(t *testing.T) {
	s, _ := newSystem(t, 6, 0, 0)
	if _, err := s.Generate(context.Background(), `
		EXTRACT temperature FROM docs USING city KIND city INTO temps;
		STORE temps INTO TABLE extracted;
	`, uql.Options{}); err != nil {
		t.Fatal(err)
	}
	published, err := s.catalogSnap()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELEC entity FROM extracted",
		"INSERT INTO extracted (entity) VALUES (",
		"DELETE extracted",
	} {
		_, err := s.SQL(context.Background(), q)
		if err == nil {
			t.Fatalf("%q: no error", q)
		}
		if _, perr := rdbms.ParseSQL(q); perr == nil || err.Error() != perr.Error() {
			t.Fatalf("%q: got %v, want the parse error %v", q, err, perr)
		}
		if got := s.catPtr.Load(); got != published {
			t.Fatalf("%q: malformed SQL unpublished the catalog snapshot", q)
		}
	}
	assertCatalogFresh(t, s, "after malformed SQL")
}

// TestCatalogCacheConcurrentQueryAndExtract races AskGuided against
// ExtractPending and CorrectValue; run with -race. The invariant at the
// end: cache still matches a full scan.
func TestCatalogCacheConcurrentQueryAndExtract(t *testing.T) {
	s, _ := newSystem(t, 10, 4, 0)
	if err := s.PlanIncremental(context.Background(), "city", []string{"temperature", "population"}, 8); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := s.ExtractPending(context.Background(), "city", 2); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := s.AskGuided(context.Background(), "average temperature Madison Wisconsin", 3); err != nil {
					errs <- fmt.Errorf("AskGuided: %w", err)
					return
				}
				s.Demand(context.Background(), "population", 0.5)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertCatalogFresh(t, s, "after concurrent query+extract")
}

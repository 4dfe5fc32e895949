package browse

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func sampleRows() []Row {
	return []Row{
		{Entity: "Madison, Wisconsin", Attribute: "temperature", Qualifier: "July", Value: "73"},
		{Entity: "Madison, Wisconsin", Attribute: "temperature", Qualifier: "January", Value: "19"},
		{Entity: "Madison, Wisconsin", Attribute: "population", Value: "233209"},
		{Entity: "Chicago, Illinois", Attribute: "temperature", Qualifier: "July", Value: "75"},
		{Entity: "Chicago, Illinois", Attribute: "population", Value: "2746388"},
		{Entity: "Chicago, Illinois", Attribute: "motto", Value: "Urbs in Horto"},
	}
}

func TestFacets(t *testing.T) {
	b := New(sampleRows())
	facets := b.Facets()
	if len(facets) != 3 {
		t.Fatalf("facets: %v", facets)
	}
	var entity Facet
	for _, f := range facets {
		if f.Name == "entity" {
			entity = f
		}
	}
	if len(entity.Values) != 2 || entity.Values[0].Count != 3 {
		t.Fatalf("entity facet: %+v", entity)
	}
	// Tie on count sorts by value: Chicago before Madison.
	if entity.Values[0].Value != "Chicago, Illinois" {
		t.Fatalf("facet order: %+v", entity.Values)
	}
}

func TestRefineAndBack(t *testing.T) {
	b := New(sampleRows())
	if err := b.Refine("entity", "Madison, Wisconsin"); err != nil {
		t.Fatal(err)
	}
	if got := len(b.Rows()); got != 3 {
		t.Fatalf("after entity refine: %d rows", got)
	}
	if err := b.Refine("attribute", "temperature"); err != nil {
		t.Fatal(err)
	}
	if got := len(b.Rows()); got != 2 {
		t.Fatalf("after attribute refine: %d rows", got)
	}
	if b.Path() != "entity=Madison, Wisconsin > attribute=temperature" {
		t.Fatalf("path: %q", b.Path())
	}
	// Facets recompute under filters.
	for _, f := range b.Facets() {
		if f.Name == "qualifier" && len(f.Values) != 2 {
			t.Fatalf("qualifier facet under filter: %+v", f)
		}
	}
	if !b.Back() {
		t.Fatal("Back failed")
	}
	if got := len(b.Rows()); got != 3 {
		t.Fatalf("after back: %d rows", got)
	}
	b.Back()
	if b.Back() {
		t.Fatal("Back on empty stack should be false")
	}
	if err := b.Refine("bogus", "x"); err == nil {
		t.Fatal("unknown facet should error")
	}
}

func TestHistogram(t *testing.T) {
	rows := []Row{
		{Entity: "a", Attribute: "temperature", Qualifier: "June", Value: "50"},
		{Entity: "a", Attribute: "temperature", Qualifier: "July", Value: "100"},
		{Entity: "a", Attribute: "temperature", Qualifier: "July", Value: "100"},
		{Entity: "a", Attribute: "motto", Qualifier: "x", Value: "not numeric"},
	}
	h := Histogram(rows, func(r Row) string { return r.Qualifier }, 20)
	lines := strings.Split(strings.TrimSpace(h), "\n")
	if len(lines) != 2 {
		t.Fatalf("histogram:\n%s", h)
	}
	if !strings.Contains(lines[0], "June") || !strings.Contains(lines[1], "July") {
		t.Fatalf("labels:\n%s", h)
	}
	// July (avg 100) has the full-width bar; June (50) half.
	julyBar := strings.Count(lines[1], "#")
	juneBar := strings.Count(lines[0], "#")
	if julyBar != 20 || juneBar != 10 {
		t.Fatalf("bars: june=%d july=%d\n%s", juneBar, julyBar, h)
	}
	if !strings.Contains(lines[1], "100.0") {
		t.Fatalf("value label missing:\n%s", h)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := Histogram([]Row{{Value: "text"}}, func(r Row) string { return "x" }, 0)
	if !strings.Contains(h, "no numeric data") {
		t.Fatalf("empty histogram: %q", h)
	}
}

// materializedFacets is the reference Facets: the counts over the row
// set Rows materializes.
func materializedFacets(b *Browser) []Facet {
	rows := b.Rows()
	count := func(get func(Row) string) map[string]int {
		m := map[string]int{}
		for _, r := range rows {
			if v := get(r); v != "" {
				m[v]++
			}
		}
		return m
	}
	return []Facet{
		{Name: "entity", Values: facetValues(count(func(r Row) string { return r.Entity }))},
		{Name: "attribute", Values: facetValues(count(func(r Row) string { return r.Attribute }))},
		{Name: "qualifier", Values: facetValues(count(func(r Row) string { return r.Qualifier }))},
	}
}

// TestCountAndFacetsMatchMaterialized checks the single-pass Count and
// Facets against the row set Rows materializes, across random refinement
// stacks (including refinements to absent values and Back steps).
func TestCountAndFacetsMatchMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func(vals []string) string { return vals[rng.Intn(len(vals))] }
	entities := []string{"Madison", "Chicago", "Boston", "Austin", ""}
	attrs := []string{"temperature", "population", "motto", ""}
	quals := []string{"July", "January", "March", ""}
	var rows []Row
	for i := 0; i < 600; i++ {
		rows = append(rows, Row{Entity: pick(entities), Attribute: pick(attrs), Qualifier: pick(quals), Value: strconv.Itoa(i)})
	}
	b := New(rows)
	facets := []string{"entity", "attribute", "qualifier"}
	values := map[string][]string{"entity": append(entities, "Nowhere"), "attribute": attrs, "qualifier": quals}
	for step := 0; step < 300; step++ {
		if rng.Intn(3) == 0 {
			b.Back()
		} else {
			f := facets[rng.Intn(len(facets))]
			if err := b.Refine(f, pick(values[f])); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := b.Count(), len(b.Rows()); got != want {
			t.Fatalf("path %q: Count %d, Rows %d", b.Path(), got, want)
		}
		if got, want := b.Facets(), materializedFacets(b); !reflect.DeepEqual(got, want) {
			t.Fatalf("path %q: Facets\n got %+v\nwant %+v", b.Path(), got, want)
		}
	}
}

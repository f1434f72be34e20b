package qsrmine_test

import (
	"reflect"
	"testing"

	qsrmine "repro"
)

// TestPublicAPIQuickstart exercises the documented quick-start path.
func TestPublicAPIQuickstart(t *testing.T) {
	scene := qsrmine.PortoAlegreScene()
	out, err := qsrmine.Run(scene, qsrmine.Config{
		Algorithm:  qsrmine.AprioriKCPlus,
		MinSupport: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.NumFrequent(2) == 0 {
		t.Fatal("no frequent itemsets")
	}
	for _, f := range out.Result.Frequent {
		if f.Items.HasSameFeaturePair(out.DB.Dict) {
			t.Errorf("same-feature itemset in KC+ output: %s", f.Items.Format(out.DB.Dict))
		}
	}
}

func TestPublicGeometryAPI(t *testing.T) {
	district := qsrmine.Rect(0, 0, 10, 10)
	slum := qsrmine.Rect(2, 2, 4, 4)
	rel, ok := qsrmine.Topological(district, slum)
	if !ok || rel != qsrmine.Contains {
		t.Errorf("Topological = %v, %v", rel, ok)
	}
	m := qsrmine.Relate(district, slum)
	if !m.IsContains() {
		t.Errorf("Relate = %s", m)
	}
	g, err := qsrmine.ParseWKT("POINT (1 2)")
	if err != nil {
		t.Fatal(err)
	}
	if qsrmine.GeomDistance(g, qsrmine.Pt(1, 2)) != 0 {
		t.Error("distance to self")
	}
	p := qsrmine.Predicate{Relation: qsrmine.Touches, FeatureType: "school"}
	if p.String() != "touches_school" {
		t.Errorf("predicate = %q", p.String())
	}
}

func TestPublicGainAPI(t *testing.T) {
	g, err := qsrmine.MinGain([]int{2, 2, 2}, 2)
	if err != nil || g != 148 {
		t.Errorf("MinGain = %d, %v", g, err)
	}
	lb, err := qsrmine.TotalLowerBound(6)
	if err != nil || lb != 57 {
		t.Errorf("TotalLowerBound = %d, %v", lb, err)
	}
	if len(qsrmine.GainTable3()) != 10 {
		t.Error("GainTable3 shape wrong")
	}
}

func TestPublicTableAPI(t *testing.T) {
	table := qsrmine.NewTable([]qsrmine.Transaction{
		{RefID: "a", Items: []string{"contains_slum", "touches_slum", "crimeRate=high"}},
		{RefID: "b", Items: []string{"contains_slum", "crimeRate=high"}},
	})
	out, err := qsrmine.RunTable(table, qsrmine.Config{
		Algorithm:     qsrmine.AprioriKCPlus,
		MinSupport:    0.5,
		GenerateRules: true,
		MinConfidence: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rules) == 0 {
		t.Error("expected rules")
	}
	alg, err := qsrmine.ParseAlgorithm("apriori-kc+")
	if err != nil || alg != qsrmine.AprioriKCPlus {
		t.Errorf("ParseAlgorithm = %v, %v", alg, err)
	}
}

// TestPublicRetiredEngineRules: through the public API, a retired engine
// name parses to AprioriKCPlus and yields the same frequent sets and the
// same association rules as naming AprioriKCPlus directly.
func TestPublicRetiredEngineRules(t *testing.T) {
	run := func(alg qsrmine.Algorithm) *qsrmine.Outcome {
		t.Helper()
		out, err := qsrmine.RunTable(qsrmine.Table2Reconstruction(), qsrmine.Config{
			Algorithm:     alg,
			MinSupport:    0.5,
			GenerateRules: true,
			MinConfidence: 0.7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(qsrmine.AprioriKCPlus)
	if len(want.Rules) == 0 {
		t.Fatal("apriori-kc+ generated no rules to compare")
	}
	for _, name := range []string{"fpgrowth-kc+", "fpgrowth", "eclat-kc+", "eclat"} {
		alg, err := qsrmine.ParseAlgorithm(name)
		if err != nil || alg != qsrmine.AprioriKCPlus {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v; want AprioriKCPlus", name, alg, err)
		}
		got := run(alg)
		if !reflect.DeepEqual(got.Result.Frequent, want.Result.Frequent) {
			t.Errorf("%s mined different frequent sets", name)
		}
		if !reflect.DeepEqual(got.Rules, want.Rules) {
			t.Errorf("%s generated different rules", name)
		}
	}
}

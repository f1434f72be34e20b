package main

import (
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

func rounds(seed int64, client, n int) [][]opKind {
	s := newOpSequence(seed, client)
	var out [][]opKind
	for i := 0; i < n; i++ {
		out = append(out, s.nextRound())
	}
	return out
}

func TestOpSequenceDeterministicPerSeed(t *testing.T) {
	a, b := rounds(7, 0, 50), rounds(7, 0, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed and client gave two different op sequences")
	}
	if reflect.DeepEqual(a, rounds(8, 0, 50)) {
		t.Error("seeds 7 and 8 gave the same op sequence")
	}
	if reflect.DeepEqual(a, rounds(7, 1, 50)) {
		t.Error("clients 0 and 1 share an op sequence")
	}
	for i, r := range a {
		var n [numKinds]int
		for _, k := range r {
			n[k]++
		}
		if n != [numKinds]int{5, 2, 2, 1} {
			t.Fatalf("round %d holds %v ops by kind, want the 5/2/2/1 mix", i, n)
		}
	}
}

func TestRequestParametersNeverRepeat(t *testing.T) {
	seen := map[float64]bool{}
	for c := -1; c < mixClients; c++ {
		for k := 0; k < 1000; k++ {
			for _, v := range []float64{coldSupport(c, k), -colocDist(c, k)} {
				if seen[v] {
					t.Fatalf("client %d request %d repeats parameter %v", c, k, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestNudgesDeterministicPerSeed(t *testing.T) {
	ds, err := datagen.GenerateScene(datagen.DefaultScene(6, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	a, b, other := newNudger(3, 0, ds), newNudger(3, 0, ds), newNudger(3, 1, ds)
	differs := false
	for i := 0; i < 20; i++ {
		x, y, z := a.next(), b.next(), other.next()
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("nudge %d: %+v vs %+v from one seed", i, x, y)
		}
		differs = differs || !reflect.DeepEqual(x, z)
		if _, _, err := ds.ApplyOps([]dataset.Op{x}); err != nil {
			t.Fatalf("nudge %d does not apply: %v", i, err)
		}
	}
	if !differs {
		t.Error("clients 0 and 1 share a patch chain")
	}
}

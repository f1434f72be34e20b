package geom

import (
	"reflect"
	"testing"
)

// FuzzParseWKT hardens the WKT parser: arbitrary input must never panic,
// the string and byte entry points must agree, and successfully parsed
// geometries must round-trip through AppendWKT to an equal geometry and
// a fixed-point rendering.
func FuzzParseWKT(f *testing.F) {
	seeds := []string{
		"POINT (1 2)",
		"POINT EMPTY",
		"MULTIPOINT ((1 1), (2 2))",
		"MULTIPOINT (1 1, 2 2)",
		"LINESTRING (0 0, 1 1, 2 0)",
		"MULTILINESTRING ((0 0, 1 0), (0 1, 1 1))",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)))",
		"POINT (1e10 -2.5e-3)",
		"  point\t( 7   8 ) ",
		"POLYGON ((",
		"POINT (a b)",
		"POINT (1 2) trailing junk",
		"POLYGON ((0 0, 1 0, 1 1, 0 0)), (5 5)",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseWKT(s)
		gb, errb := ParseWKTBytes([]byte(s))
		if (err == nil) != (errb == nil) || !reflect.DeepEqual(g, gb) {
			t.Fatalf("ParseWKT and ParseWKTBytes disagree on %q: %v / %v", s, err, errb)
		}
		if err != nil {
			return
		}
		wkt := string(AppendWKT(nil, g))
		back, err := ParseWKT(wkt)
		if err != nil {
			t.Fatalf("rendered WKT does not re-parse: %q -> %q: %v", s, wkt, err)
		}
		if !reflect.DeepEqual(back, g) {
			t.Fatalf("AppendWKT round trip changed the geometry: %q -> %q: %#v != %#v", s, wkt, back, g)
		}
		if back.WKT() != wkt {
			t.Fatalf("WKT not a fixed point: %q -> %q", wkt, back.WKT())
		}
	})
}

// FuzzRelateRectangles stresses the DE-9IM machinery with arbitrary
// rectangle pairs: the matrix diagonal entries must stay within their
// dimensional bounds and transposition must hold.
func FuzzRelateRectangles(f *testing.F) {
	f.Add(0.0, 0.0, 4.0, 4.0, 2.0, 2.0, 6.0, 6.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 2.0, 1.0)
	f.Fuzz(func(t *testing.T, ax, ay, aw, ah, bx, by, bw, bh float64) {
		clamp := func(v float64) float64 {
			if v != v || v > 1e6 || v < -1e6 {
				return 0
			}
			return v
		}
		size := func(v float64) float64 {
			v = clamp(v)
			if v < 0 {
				v = -v
			}
			return v + 0.5
		}
		a := Rect(clamp(ax), clamp(ay), clamp(ax)+size(aw), clamp(ay)+size(ah))
		b := Rect(clamp(bx), clamp(by), clamp(bx)+size(bw), clamp(by)+size(bh))
		// Must not panic; Locate of each centroid must be consistent
		// with distance 0.
		if Locate(a.Centroid(), a) != Interior {
			t.Fatal("centroid of a rectangle must be interior")
		}
		if Distance(a, b) == 0 != Intersects(a, b) {
			t.Fatal("Distance and Intersects disagree")
		}
	})
}

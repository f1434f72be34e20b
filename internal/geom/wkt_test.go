package geom

import (
	"strings"
	"testing"
)

func TestWKTRoundTrip(t *testing.T) {
	cases := []Geometry{
		Pt(1, 2),
		Pt(-1.5, 2.25),
		MultiPoint{Points: []Point{Pt(0, 0), Pt(3, 4)}},
		Line(Pt(0, 0), Pt(1, 1), Pt(2, 0)),
		MultiLineString{Lines: []LineString{
			Line(Pt(0, 0), Pt(1, 0)),
			Line(Pt(0, 1), Pt(1, 1), Pt(2, 2)),
		}},
		Rect(0, 0, 4, 4),
		Polygon{
			Shell: Ring{Coords: []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}},
			Holes: []Ring{{Coords: []Point{Pt(2, 2), Pt(4, 2), Pt(4, 4), Pt(2, 4)}}},
		},
		MultiPolygon{Polygons: []Polygon{Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)}},
	}
	for _, g := range cases {
		wkt := g.WKT()
		parsed, err := ParseWKT(wkt)
		if err != nil {
			t.Errorf("%s: parse error: %v", wkt, err)
			continue
		}
		if parsed.WKT() != wkt {
			t.Errorf("round trip mismatch:\n  in:  %s\n  out: %s", wkt, parsed.WKT())
		}
		if parsed.GeomType() != g.GeomType() {
			t.Errorf("%s: type changed to %s", wkt, parsed.GeomType())
		}
	}
}

func TestWKTExactStrings(t *testing.T) {
	cases := []struct {
		g    Geometry
		want string
	}{
		{Pt(1, 2), "POINT (1 2)"},
		{Line(Pt(0, 0), Pt(1, 1)), "LINESTRING (0 0, 1 1)"},
		{Rect(0, 0, 1, 1), "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))"},
		{MultiPoint{}, "MULTIPOINT EMPTY"},
		{LineString{}, "LINESTRING EMPTY"},
		{Polygon{}, "POLYGON EMPTY"},
		{MultiPolygon{}, "MULTIPOLYGON EMPTY"},
		{MultiLineString{}, "MULTILINESTRING EMPTY"},
	}
	for _, tc := range cases {
		if got := tc.g.WKT(); got != tc.want {
			t.Errorf("WKT = %q, want %q", got, tc.want)
		}
	}
}

func TestParseWKTVariants(t *testing.T) {
	// Multipoint without per-point parentheses.
	g, err := ParseWKT("MULTIPOINT (1 1, 2 2)")
	if err != nil {
		t.Fatal(err)
	}
	if mp := g.(MultiPoint); len(mp.Points) != 2 || !mp.Points[1].Equal(Pt(2, 2)) {
		t.Errorf("bare multipoint = %+v", mp)
	}
	// Lower-case keyword, extra whitespace, scientific notation.
	g, err = ParseWKT("  point\t( 1e1   -2.5 ) ")
	if err != nil {
		t.Fatal(err)
	}
	if p := g.(Point); !p.Equal(Pt(10, -2.5)) {
		t.Errorf("parsed point = %v", p)
	}
	// Polygon with explicit closing coordinate keeps an open ring inside.
	g, err = ParseWKT("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
	if err != nil {
		t.Fatal(err)
	}
	if poly := g.(Polygon); len(poly.Shell.Coords) != 4 {
		t.Errorf("closing coordinate not stripped: %d coords", len(poly.Shell.Coords))
	}
	// POINT EMPTY parses (as an empty multipoint, our empty-point stand-in).
	g, err = ParseWKT("POINT EMPTY")
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsEmpty() {
		t.Error("POINT EMPTY should be empty")
	}
}

func TestParseWKTErrors(t *testing.T) {
	bad := []string{
		"",
		"CIRCLE (0 0, 1)",
		"POINT (1)",
		"POINT (1 2",
		"POINT 1 2",
		"LINESTRING ((0 0, 1 1)",
		"POLYGON (0 0, 1 1)",
		"POINT (a b)",
		"POINT (1 2, 3 4)",
	}
	for _, s := range bad {
		if _, err := ParseWKT(s); err == nil {
			t.Errorf("ParseWKT(%q) should fail", s)
		} else if !strings.Contains(err.Error(), "geom: parsing WKT") {
			t.Errorf("error not wrapped: %v", err)
		}
	}
}

func TestMustParseWKT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseWKT should panic on bad input")
		}
	}()
	g := MustParseWKT("POINT (3 4)")
	if !g.(Point).Equal(Pt(3, 4)) {
		t.Error("MustParseWKT wrong result")
	}
	MustParseWKT("NOPE")
}

// TestParseWKTRejectsTrailingInput: only whitespace may follow the
// geometry. Trailing text used to be ignored, so a second ring list
// after a complete polygon was silently dropped.
func TestParseWKTRejectsTrailingInput(t *testing.T) {
	cases := []struct {
		in     string
		accept bool
	}{
		{"POINT (1 2)", true},
		{"POINT (1 2) \t\r\n", true},
		{"POINT EMPTY  ", true},
		{"POINT (1 2) trailing junk", false},
		{"POINT (1 2))", false},
		{"POINT (1 2),", false},
		{"POLYGON ((0 0, 1 0, 1 1, 0 0)), (5 5)", false},
		{"POLYGON ((0 0, 1 0, 1 1, 0 0)) POLYGON ((5 5, 6 5, 6 6, 5 5))", false},
		{"LINESTRING EMPTY x", false},
		{"MULTIPOINT ((1 1), (2 2)) 3", false},
		{"POINT (1 2)\x00", false},
	}
	for _, tc := range cases {
		for name, parse := range map[string]func(string) (Geometry, error){
			"string": ParseWKT,
			"bytes":  func(s string) (Geometry, error) { return ParseWKTBytes([]byte(s)) },
		} {
			_, err := parse(tc.in)
			if (err == nil) != tc.accept {
				t.Errorf("%s parse of %q: err = %v, want accept=%v", name, tc.in, err, tc.accept)
			}
			if err != nil && !strings.Contains(err.Error(), "geom: parsing WKT") {
				t.Errorf("error not wrapped: %v", err)
			}
		}
	}
}

// TestAppendWKT: AppendWKT extends the caller's buffer in place and is
// the formatter behind every WKT method, including the degenerate
// shapes (empty rings and members) that only render, never re-parse.
func TestAppendWKT(t *testing.T) {
	cases := []struct {
		g    Geometry
		want string
	}{
		{Pt(1.5, -2e-7), "POINT (1.5 -2e-07)"},
		{MultiPoint{Points: []Point{Pt(0, 0), Pt(3, 4)}}, "MULTIPOINT ((0 0), (3 4))"},
		{MultiLineString{Lines: []LineString{Line(Pt(0, 0), Pt(1, 0)), {}}}, "MULTILINESTRING ((0 0, 1 0), ())"},
		{Polygon{Shell: Ring{Coords: []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1)}}, Holes: []Ring{{}}},
			"POLYGON ((0 0, 1 0, 1 1, 0 0), ())"},
		{MultiPolygon{Polygons: []Polygon{{}, Rect(0, 0, 1, 1)}},
			"MULTIPOLYGON ((()), ((0 0, 1 0, 1 1, 0 1, 0 0)))"},
		{&Polygon{Shell: Ring{Coords: []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1)}}}, "POLYGON ((0 0, 1 0, 1 1, 0 0))"},
	}
	for _, tc := range cases {
		got := AppendWKT([]byte("wkt="), tc.g)
		if string(got) != "wkt="+tc.want {
			t.Errorf("AppendWKT = %q, want %q", got, "wkt="+tc.want)
		}
		if tc.g.WKT() != tc.want {
			t.Errorf("WKT() = %q, want %q", tc.g.WKT(), tc.want)
		}
	}
}

func BenchmarkAppendWKT(b *testing.B) {
	g := Rect(123.456, 789.012, 345.678, 901.234)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendWKT(buf[:0], g)
	}
}

func BenchmarkParseWKTBytes(b *testing.B) {
	src := AppendWKT(nil, Rect(123.456, 789.012, 345.678, 901.234))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseWKTBytes(src); err != nil {
			b.Fatal(err)
		}
	}
}

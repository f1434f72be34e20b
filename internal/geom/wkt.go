package geom

import (
	"fmt"
	"strconv"
	"strings"
)

// WKT implements Geometry for Point.
func (p Point) WKT() string { return string(AppendWKT(nil, p)) }

// WKT implements Geometry for MultiPoint.
func (m MultiPoint) WKT() string { return string(AppendWKT(nil, m)) }

// WKT implements Geometry for LineString.
func (l LineString) WKT() string { return string(AppendWKT(nil, l)) }

// WKT implements Geometry for MultiLineString.
func (m MultiLineString) WKT() string { return string(AppendWKT(nil, m)) }

// WKT implements Geometry for Polygon.
func (p Polygon) WKT() string { return string(AppendWKT(nil, p)) }

// WKT implements Geometry for MultiPolygon.
func (m MultiPolygon) WKT() string { return string(AppendWKT(nil, m)) }

// AppendWKT appends the well-known text of g to dst and returns the
// extended buffer. It is the package's one WKT formatter: coordinates are
// written with strconv.AppendFloat ('g', shortest round-trip form)
// straight into dst, and rings gain their explicit closing coordinate.
// The output for this package's geometry types is printable ASCII without
// quotes or backslashes.
func AppendWKT(dst []byte, g Geometry) []byte {
	switch g := g.(type) {
	case Point:
		dst = append(dst, "POINT ("...)
		dst = appendCoord(dst, g)
		return append(dst, ')')
	case MultiPoint:
		if g.IsEmpty() {
			return append(dst, "MULTIPOINT EMPTY"...)
		}
		dst = append(dst, "MULTIPOINT ("...)
		for i, p := range g.Points {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(dst, '(')
			dst = appendCoord(dst, p)
			dst = append(dst, ')')
		}
		return append(dst, ')')
	case LineString:
		if g.IsEmpty() {
			return append(dst, "LINESTRING EMPTY"...)
		}
		dst = append(dst, "LINESTRING "...)
		return appendCoordSeq(dst, g.Coords, false)
	case MultiLineString:
		if g.IsEmpty() {
			return append(dst, "MULTILINESTRING EMPTY"...)
		}
		dst = append(dst, "MULTILINESTRING ("...)
		for i, l := range g.Lines {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendCoordSeq(dst, l.Coords, false)
		}
		return append(dst, ')')
	case Polygon:
		if g.IsEmpty() {
			return append(dst, "POLYGON EMPTY"...)
		}
		dst = append(dst, "POLYGON "...)
		return appendPolyBody(dst, g)
	case MultiPolygon:
		if g.IsEmpty() {
			return append(dst, "MULTIPOLYGON EMPTY"...)
		}
		dst = append(dst, "MULTIPOLYGON ("...)
		for i, p := range g.Polygons {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendPolyBody(dst, p)
		}
		return append(dst, ')')
	}
	return append(dst, g.WKT()...)
}

func appendPolyBody(dst []byte, p Polygon) []byte {
	dst = append(dst, '(')
	dst = appendCoordSeq(dst, p.Shell.Coords, true)
	for _, h := range p.Holes {
		dst = append(dst, ", "...)
		dst = appendCoordSeq(dst, h.Coords, true)
	}
	return append(dst, ')')
}

// appendCoordSeq writes "(x y, x y, ...)". closeRing repeats the first
// coordinate at the end, as WKT requires of rings (whose closing
// coordinate is implicit in Ring).
func appendCoordSeq(dst []byte, coords []Point, closeRing bool) []byte {
	dst = append(dst, '(')
	for i, p := range coords {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendCoord(dst, p)
	}
	if closeRing && len(coords) > 0 {
		dst = append(dst, ", "...)
		dst = appendCoord(dst, coords[0])
	}
	return append(dst, ')')
}

func appendCoord(dst []byte, p Point) []byte {
	dst = strconv.AppendFloat(dst, p.X, 'g', -1, 64)
	dst = append(dst, ' ')
	return strconv.AppendFloat(dst, p.Y, 'g', -1, 64)
}

// ParseWKT parses a well-known-text geometry. It accepts the subset of WKT
// produced by this package: POINT, MULTIPOINT (with or without per-point
// parentheses), LINESTRING, MULTILINESTRING, POLYGON, MULTIPOLYGON, and
// the EMPTY keyword. Only whitespace may follow the geometry.
func ParseWKT(s string) (Geometry, error) {
	return parseWKT(s)
}

// ParseWKTBytes is ParseWKT over a byte slice, for decoders that hold the
// text in a larger buffer: it parses in place without copying b to a
// string, and the result does not alias b.
func ParseWKTBytes(b []byte) (Geometry, error) {
	return parseWKT(b)
}

func parseWKT[S string | []byte](src S) (Geometry, error) {
	p := &wktParser[S]{src: src}
	g, err := p.parse()
	if err == nil {
		p.skipSpace()
		if p.pos < len(p.src) {
			err = fmt.Errorf("unexpected %q at offset %d after the geometry", p.src[p.pos], p.pos)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("geom: parsing WKT %q: %w", string(src), err)
	}
	return g, nil
}

// MustParseWKT is ParseWKT that panics on error; for tests and static data.
func MustParseWKT(s string) Geometry {
	g, err := ParseWKT(s)
	if err != nil {
		panic(err)
	}
	return g
}

type wktParser[S string | []byte] struct {
	src S
	pos int
}

func (p *wktParser[S]) parse() (Geometry, error) {
	kw := p.ident()
	switch {
	case keywordIs(kw, "POINT"):
		if p.empty() {
			return MultiPoint{}, nil
		}
		coords, err := p.coordSeq()
		if err != nil {
			return nil, err
		}
		if len(coords) != 1 {
			return nil, fmt.Errorf("POINT needs exactly 1 coordinate, got %d", len(coords))
		}
		return coords[0], nil
	case keywordIs(kw, "MULTIPOINT"):
		if p.empty() {
			return MultiPoint{}, nil
		}
		pts, err := p.multipointBody()
		if err != nil {
			return nil, err
		}
		return MultiPoint{Points: pts}, nil
	case keywordIs(kw, "LINESTRING"):
		if p.empty() {
			return LineString{}, nil
		}
		coords, err := p.coordSeq()
		if err != nil {
			return nil, err
		}
		return LineString{Coords: coords}, nil
	case keywordIs(kw, "MULTILINESTRING"):
		if p.empty() {
			return MultiLineString{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var lines []LineString
		for {
			coords, err := p.coordSeq()
			if err != nil {
				return nil, err
			}
			lines = append(lines, LineString{Coords: coords})
			if !p.accept(',') {
				break
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return MultiLineString{Lines: lines}, nil
	case keywordIs(kw, "POLYGON"):
		if p.empty() {
			return Polygon{}, nil
		}
		return p.polygonBody()
	case keywordIs(kw, "MULTIPOLYGON"):
		if p.empty() {
			return MultiPolygon{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var polys []Polygon
		for {
			poly, err := p.polygonBody()
			if err != nil {
				return nil, err
			}
			polys = append(polys, poly)
			if !p.accept(',') {
				break
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return MultiPolygon{Polygons: polys}, nil
	case len(kw) == 0:
		return nil, fmt.Errorf("empty input")
	default:
		return nil, fmt.Errorf("unsupported geometry keyword %q", strings.ToUpper(string(kw)))
	}
}

// keywordIs reports whether kw equals the upper-case ASCII keyword,
// ignoring case.
func keywordIs[S string | []byte](kw S, upper string) bool {
	if len(kw) != len(upper) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		c := kw[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

func (p *wktParser[S]) polygonBody() (Polygon, error) {
	if err := p.expect('('); err != nil {
		return Polygon{}, err
	}
	var poly Polygon
	for first := true; ; first = false {
		coords, err := p.coordSeq()
		if err != nil {
			return Polygon{}, err
		}
		// Drop the explicit closing coordinate if present.
		if len(coords) > 1 && coords[0].Equal(coords[len(coords)-1]) {
			coords = coords[:len(coords)-1]
		}
		if first {
			poly.Shell.Coords = coords
		} else {
			poly.Holes = append(poly.Holes, Ring{Coords: coords})
		}
		if !p.accept(',') {
			break
		}
	}
	if err := p.expect(')'); err != nil {
		return Polygon{}, err
	}
	return poly, nil
}

func (p *wktParser[S]) multipointBody() ([]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var pts []Point
	for {
		paren := p.accept('(')
		pt, err := p.coord()
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
		if paren {
			if err := p.expect(')'); err != nil {
				return nil, err
			}
		}
		if !p.accept(',') {
			break
		}
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return pts, nil
}

func (p *wktParser[S]) coordSeq() ([]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	coords := make([]Point, 0, p.seqLen())
	for {
		pt, err := p.coord()
		if err != nil {
			return nil, err
		}
		coords = append(coords, pt)
		if !p.accept(',') {
			break
		}
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return coords, nil
}

// seqLen counts the coordinates of the sequence starting at the parser's
// position (just past its opening parenthesis) by counting the commas
// before the closing one, so coordSeq allocates its slice once.
func (p *wktParser[S]) seqLen() int {
	n := 1
	for i := p.pos; i < len(p.src); i++ {
		switch p.src[i] {
		case ',':
			n++
		case ')', '(':
			return n
		}
	}
	return n
}

func (p *wktParser[S]) coord() (Point, error) {
	x, err := p.number()
	if err != nil {
		return Point{}, err
	}
	y, err := p.number()
	if err != nil {
		return Point{}, err
	}
	return Point{x, y}, nil
}

func (p *wktParser[S]) skipSpace() {
	src, i := p.src, p.pos
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	p.pos = i
}

func (p *wktParser[S]) ident() S {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			p.pos++
		} else {
			break
		}
	}
	return p.src[start:p.pos]
}

// empty consumes the EMPTY keyword if present.
func (p *wktParser[S]) empty() bool {
	save := p.pos
	if keywordIs(p.ident(), "EMPTY") {
		return true
	}
	p.pos = save
	return false
}

func (p *wktParser[S]) accept(c byte) bool {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *wktParser[S]) expect(c byte) error {
	if !p.accept(c) {
		got := "end of input"
		if p.pos < len(p.src) {
			got = fmt.Sprintf("%q", p.src[p.pos])
		}
		return fmt.Errorf("expected %q at offset %d, got %s", string(c), p.pos, got)
	}
	return nil
}

func (p *wktParser[S]) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
			c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	if start == p.pos {
		return 0, fmt.Errorf("expected number at offset %d", start)
	}
	// The conversion does not escape, so a token of up to 32 bytes is
	// not copied to the heap when S is []byte.
	return strconv.ParseFloat(string(p.src[start:p.pos]), 64)
}

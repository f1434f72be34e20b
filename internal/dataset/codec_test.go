package dataset_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// codecScenes are the datasets the byte-identity and decode tests cover:
// generated district and co-location scenes, the paper's sample, and
// hand-built edge cases for every branch of the writer.
func codecScenes(t testing.TB) map[string]*dataset.Dataset {
	t.Helper()
	scenes := map[string]*dataset.Dataset{"porto-alegre": dataset.PortoAlegreScene()}
	for seed := int64(1); seed <= 3; seed++ {
		d, err := datagen.GenerateScene(datagen.DefaultScene(40, 40, seed))
		if err != nil {
			t.Fatal(err)
		}
		scenes[fmt.Sprintf("default-40x40-seed%d", seed)] = d
	}
	coloc, err := datagen.GenerateColocationScene(datagen.DefaultColocationScene(7))
	if err != nil {
		t.Fatal(err)
	}
	scenes["colocation"] = coloc

	square := geom.Rect(0, 0, 1, 1)
	scenes["no-relevant-layers"] = &dataset.Dataset{
		Reference: dataset.NewLayer("district").Add(dataset.Feature{ID: "d1", Geometry: square}),
	}
	scenes["empty-layers"] = &dataset.Dataset{
		Reference: dataset.NewLayer("district"),
		Relevant:  []*dataset.Layer{dataset.NewLayer("slum"), {Type: "school", Features: []dataset.Feature{}}},
	}
	scenes["nil-geometry"] = &dataset.Dataset{
		Reference: dataset.NewLayer("district").Add(dataset.Feature{ID: "ghost"}),
	}
	scenes["escaping"] = &dataset.Dataset{
		Reference: dataset.NewLayer("a<b>&c\"d\\e\u2028f\u2029\x01\t\n\x7f").Add(dataset.Feature{
			ID:       "bad\xffutf8\xe2\x80",
			Geometry: geom.Pt(1, 2),
			Attrs: map[string]dataset.Value{
				"<html>&amp;":  "x<y>&z",
				"sep\u2028":    "line\u2029para",
				"invalid\xfe":  "bytes\xc3\x28",
				"ctrl":         "\x00\x1f\b\f\r",
				"":             "empty key",
				"quote\"slash": `back\slash "quoted"`,
			},
		}),
		NonSpatialAttrs: []string{"<>&", "\u2028", "\xff"},
	}
	scenes["non-ascii-nested-nonspatial"] = &dataset.Dataset{
		Reference: dataset.NewLayer("bairro").Add(dataset.Feature{
			ID:       "São José — 東京",
			Geometry: geom.MultiPolygon{Polygons: []geom.Polygon{square, geom.Rect(2, 2, 3, 3)}},
			Attrs: map[string]dataset.Value{
				"crimeRate": "high",
				"pop":       12345.5,
				"tiny":      1e-7,
				"huge":      1e21,
				"negzero":   -0.0,
				"flag":      true,
				"off":       false,
				"nothing":   nil,
				"nested": map[string]any{
					"list":  []any{1.0, "two", map[string]any{"three": []any{}}},
					"empty": map[string]any{},
					"deep":  map[string]any{"k": []any{[]any{true, nil}}},
				},
				"array": []any{"a", 2.5},
			},
		}),
		Relevant: []*dataset.Layer{
			dataset.NewLayer("rio").Add(dataset.Feature{ID: "r1", Geometry: geom.Line(geom.Pt(0, 0), geom.Pt(5, 5.5))}),
			dataset.NewLayer("escola").
				Add(dataset.Feature{ID: "e1", Geometry: geom.MultiPoint{Points: []geom.Point{geom.Pt(1, 1), geom.Pt(-2, 3e10)}}}).
				Add(dataset.Feature{ID: "e2", Geometry: geom.MultiLineString{Lines: []geom.LineString{geom.Line(geom.Pt(0, 0), geom.Pt(1, 1))}}}).
				Add(dataset.Feature{ID: "e3", Geometry: geom.Polygon{
					Shell: geom.Ring{Coords: []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}},
					Holes: []geom.Ring{{Coords: []geom.Point{geom.Pt(2, 2), geom.Pt(4, 2), geom.Pt(4, 4)}}},
				}}).
				Add(dataset.Feature{ID: "e4", Geometry: geom.LineString{}, Attrs: map[string]dataset.Value{}}),
		},
		NonSpatialAttrs: []string{"crimeRate", "pop"},
	}
	return scenes
}

// TestWriteJSONByteIdentical: the single-pass writer reproduces the
// reflective encoder's output byte for byte, so content digests of
// written scenes (PATCH successors, stored uploads) do not change.
func TestWriteJSONByteIdentical(t *testing.T) {
	for name, d := range codecScenes(t) {
		t.Run(name, func(t *testing.T) {
			var want, got bytes.Buffer
			if err := dataset.OracleWriteJSON(d, &want); err != nil {
				t.Fatal(err)
			}
			if err := d.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("output differs from encoding/json at byte %d:\n got: %q\nwant: %q",
					firstDiff(got.Bytes(), want.Bytes()), clip(got.Bytes(), want.Bytes()), clip(want.Bytes(), got.Bytes()))
			}
			appended, err := d.AppendJSON([]byte("prefix"))
			if err != nil || !bytes.Equal(appended, append([]byte("prefix"), want.Bytes()...)) {
				t.Fatalf("AppendJSON does not extend its buffer with the document (err %v)", err)
			}
		})
	}
}

// TestWriteJSONUnsupportedAttr: an attr value encoding/json cannot
// encode fails the write, as it did through the encoder.
func TestWriteJSONUnsupportedAttr(t *testing.T) {
	d := &dataset.Dataset{Reference: dataset.NewLayer("d").Add(dataset.Feature{
		ID: "x", Geometry: geom.Pt(0, 0), Attrs: map[string]dataset.Value{"nan": func() {}},
	})}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err == nil {
		t.Fatal("WriteJSON encoded a func-valued attr")
	}
}

// TestReadJSONMatchesOracle: on every codec scene the reader yields a
// dataset deep-equal to the reflective decode of the same bytes.
func TestReadJSONMatchesOracle(t *testing.T) {
	for name, d := range codecScenes(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := d.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			want, wantErr := dataset.OracleReadJSON(buf.Bytes())
			got, err := dataset.ReadJSON(bytes.NewReader(buf.Bytes()))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("accept mismatch: reader err %v, oracle err %v", err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded datasets differ:\n got %#v\nwant %#v", got, want)
			}
		})
	}
}

// TestReadJSONSemantics pins the accept/reject decisions the reader
// shares with encoding/json — and the two rules it adds — against the
// oracle, case by case.
func TestReadJSONSemantics(t *testing.T) {
	const feat = `{"id":"a","wkt":"POINT(1 2)"}`
	cases := []struct {
		name   string
		doc    string
		accept bool
	}{
		{"minimal", `{"reference":{"type":"d","features":[` + feat + `]}}`, true},
		{"top-level null", `null`, true},
		{"empty object", ` {} `, true},
		{"unknown keys skipped", `{"x":[1,{"y":null}],"reference":{"type":"d","z":true,"features":[{"id":"a","q":"r","wkt":"POINT(1 2)"}]}}`, true},
		{"case-insensitive keys", `{"REFERENCE":{"Type":"d","FeAtUrEs":[{"ID":"a","WKT":"POINT(1 2)","Attrs":{"K":"v"}}]},"nonspatialattrs":["K"]}`, true},
		{"kelvin sign folds to k", `{"reference":{"type":"d","features":[{"id":"a","w\u212at":"POINT(1 2)"}]}}`, true},
		{"escaped key", `{"refer\u0065nce":{"type":"d","features":[` + feat + `]}}`, true},
		{"escaped wkt", `{"reference":{"type":"d","features":[{"id":"a","wkt":"POINT\u0020(1 2)\n"}]}}`, true},
		{"nulls keep zero values", `{"reference":{"type":null,"features":[{"id":null,"wkt":"POINT(1 2)","attrs":null}]},"relevant":null,"nonSpatialAttrs":null}`, true},
		{"null layer elements", `{"relevant":[null,{"type":"w","features":null}],"nonSpatialAttrs":[null,"x"]}`, true},
		{"empty containers", `{"relevant":[],"nonSpatialAttrs":[],"reference":{"features":[{"id":"a","wkt":"POINT(1 2)","attrs":{}}]}}`, true},
		{"attr scalars", `{"reference":{"features":[{"wkt":"POINT(1 2)","attrs":{"s":"x","n":-1.5e3,"z":0,"t":true,"f":false,"u":null,"dup":1,"dup":2}}]}}`, true},
		{"attr nested", `{"reference":{"features":[{"wkt":"POINT(1 2)","attrs":{"o":{"a":[1,{"b":null}]},"e":[]}}]}}`, true},
		{"escaped strings", `{"reference":{"type":"\ud83d\ude00 \ud800 \udc00x \u00e9\/\"\\\b\f\n\r\t","features":[{"id":"\ud800\u0041","wkt":"POINT(1 2)"}]}}`, true},
		{"invalid utf-8", "{\"reference\":{\"type\":\"\xff\xfe\",\"features\":[{\"id\":\"\xed\xa0\x80\",\"wkt\":\"POINT(1 2)\",\"attrs\":{\"\xc3\":\"\xe2\x82\"}}]}}", true},
		{"trailing whitespace", "{}\n\t\r ", true},

		{"empty input", ``, false},
		{"whitespace only", " \n", false},
		{"trailing garbage", `{"reference":{"type":"d","features":[` + feat + `]}} garbage`, false},
		{"second document", `{} {}`, false},
		{"trailing after null", `null x`, false},
		{"duplicate features", `{"reference":{"type":"d","features":[{"id":"a","wkt":"POINT(1 2)","attrs":{"k":"v"}}],"features":[{"id":"b"}]}}`, false},
		{"duplicate key differing in case", `{"reference":{"type":"d","Type":"e","features":[` + feat + `]}}`, false},
		{"duplicate top-level key", `{"relevant":[],"relevant":[]}`, false},
		{"duplicate wkt", `{"reference":{"features":[{"wkt":"POINT(1 2)","wkt":"POINT(3 4)"}]}}`, false},
		{"duplicate escaped key", `{"reference":{},"r\u0065ference":{}}`, false},
		{"top-level array", `[]`, false},
		{"top-level string", `"x"`, false},
		{"top-level number", `1`, false},
		{"reference wrong type", `{"reference":[]}`, false},
		{"type wrong type", `{"reference":{"type":1}}`, false},
		{"features wrong type", `{"reference":{"features":{}}}`, false},
		{"feature wrong type", `{"reference":{"features":[1]}}`, false},
		{"id wrong type", `{"reference":{"features":[{"id":true,"wkt":"POINT(1 2)"}]}}`, false},
		{"attrs wrong type", `{"reference":{"features":[{"wkt":"POINT(1 2)","attrs":[]}]}}`, false},
		{"nonSpatialAttrs element wrong type", `{"nonSpatialAttrs":[1]}`, false},
		{"relevant wrong type", `{"relevant":{}}`, false},
		{"attr number overflow", `{"reference":{"features":[{"wkt":"POINT(1 2)","attrs":{"n":1e400}}]}}`, false},
		{"nested attr number overflow", `{"reference":{"features":[{"wkt":"POINT(1 2)","attrs":{"n":[1e400]}}]}}`, false},
		{"missing wkt", `{"reference":{"features":[{"id":"a"}]}}`, false},
		{"null feature", `{"reference":{"features":[null]}}`, false},
		{"bad wkt", `{"reference":{"features":[{"wkt":"JUNK"}]}}`, false},
		{"wkt trailing junk", `{"reference":{"features":[{"wkt":"POINT (1 2) junk"}]}}`, false},
		{"truncated", `{"reference":{"type":"d"`, false},
		{"trailing comma", `{"relevant":[],}`, false},
		{"bad escape", `{"x":"\q"}`, false},
		{"short unicode escape", `{"x":"\u12"}`, false},
		{"control char in string", "{\"x\":\"a\x01b\"}", false},
		{"leading zero", `{"x":01}`, false},
		{"bare minus", `{"x":-}`, false},
		{"dangling exponent", `{"x":1e}`, false},
		{"dangling fraction", `{"x":1.}`, false},
		{"bad literal", `{"x":nul}`, false},
		{"single quotes", `{'x':1}`, false},
		{"unquoted key", `{x:1}`, false},
		{"bom", "\xef\xbb\xbf{}", false},
		{"syntax error after type error", `{"reference":1,"x":[}`, false},
		{"type error after bad wkt", `{"reference":{"features":[{"wkt":"JUNK"},{"id":1}]}}`, false},
		{"too deep", `{"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`, false},
		{"deep but allowed", `{"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantErr := dataset.OracleReadJSON([]byte(tc.doc))
			if (wantErr == nil) != tc.accept {
				t.Fatalf("oracle: err = %v, want accept=%v", wantErr, tc.accept)
			}
			got, err := dataset.ReadJSON(strings.NewReader(tc.doc))
			if (err == nil) != tc.accept {
				t.Fatalf("ReadJSON: err = %v, want accept=%v", err, tc.accept)
			}
			if err != nil && !strings.HasPrefix(err.Error(), "dataset: ") {
				t.Errorf("error not prefixed: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded datasets differ:\n got %#v\nwant %#v", got, want)
			}
		})
	}
}

// TestReadJSONErrorPrecedence: when a document has several faults, the
// reader reports the same kind of fault as the oracle: a syntax error
// anywhere beats a wrong-type value, which beats an unparsable WKT,
// whatever their order in the document.
func TestReadJSONErrorPrecedence(t *testing.T) {
	cases := []struct {
		doc         string
		oracle, got string // substrings of the oracle's and the reader's errors
	}{
		{`{"reference":{"features":[{"wkt":"JUNK"},{"id":1}]}}`, "cannot unmarshal number", "cannot decode number"},
		{`{"reference":{"features":[{"id":1},{"wkt":"JUNK"}]}}`, "cannot unmarshal number", "cannot decode number"},
		{`{"reference":{"features":[{"wkt":"JUNK"}],"type":"d"},"relevant":[{"type":"w","features":[{"wkt":"POINT(x)"}]}]}`, `layer "d" feature "": geom: parsing WKT "JUNK"`, `layer "d" feature "": geom: parsing WKT "JUNK"`},
		{`{"reference":{"features":[{"wkt":"JUNK"},{"id":1}]},"x":[}`, "invalid character", "invalid character"},
	}
	for _, tc := range cases {
		_, wantErr := dataset.OracleReadJSON([]byte(tc.doc))
		if wantErr == nil || !strings.Contains(wantErr.Error(), tc.oracle) {
			t.Errorf("%s: oracle err = %v, want it to contain %q", tc.doc, wantErr, tc.oracle)
		}
		_, err := dataset.ParseJSON([]byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.got) {
			t.Errorf("%s: ParseJSON err = %v, want it to contain %q", tc.doc, err, tc.got)
		}
	}
}

// TestParseJSONDoesNotAliasInput: the decoded dataset owns its strings,
// so a caller may reuse the body buffer.
func TestParseJSONDoesNotAliasInput(t *testing.T) {
	body := []byte(`{"reference":{"type":"d","features":[{"id":"a","wkt":"POINT(1 2)","attrs":{"k":"v"}}]},"nonSpatialAttrs":["k"]}`)
	d, err := dataset.ParseJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'X'
	}
	f := d.Reference.Features[0]
	if d.Reference.Type != "d" || f.ID != "a" || f.Attrs["k"] != "v" || d.NonSpatialAttrs[0] != "k" || !f.Geometry.(geom.Point).Equal(geom.Pt(1, 2)) {
		t.Fatalf("decoded dataset changed with its input buffer: %#v", d)
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// clip shows a window of a around its first difference from b.
func clip(a, b []byte) []byte {
	i := firstDiff(a, b)
	lo, hi := max(i-40, 0), min(i+40, len(a))
	return a[lo:hi]
}

func benchScene(b *testing.B) (*dataset.Dataset, []byte) {
	d, err := datagen.GenerateScene(datagen.DefaultScene(40, 40, 1))
	if err != nil {
		b.Fatal(err)
	}
	body, err := d.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	return d, body
}

func BenchmarkReadJSON(b *testing.B) {
	_, body := benchScene(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.ReadJSON(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteJSON(b *testing.B) {
	d, body := benchScene(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

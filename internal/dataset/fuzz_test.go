package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The parsers below face untrusted bytes directly in the qsrmined
// upload endpoints, so each gets a fuzz target: any input may be
// rejected with an error, but none may panic, and anything that parses
// must survive Validate and a write/re-read round trip.

// FuzzReadJSON is differential: the single-pass reader and the
// reflective oracle must agree on accepting or rejecting every input,
// and accepted inputs must decode to deep-equal datasets that survive
// a write/re-read round trip.
func FuzzReadJSON(f *testing.F) {
	// A real scene, hand-written corner cases, and plain garbage.
	var buf bytes.Buffer
	if err := PortoAlegreScene().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT(1 2)"}]}}`))
	f.Add([]byte(`{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT(1 2)","attrs":{"a":"b"}}]},` +
		`"relevant":[{"type":"w","features":[{"id":"y","wkt":"LINESTRING(0 0, 1 1)"}]}]}`))
	f.Add([]byte(`{"reference":{"features":[{"wkt":"POLYGON((0 0, 1 0, 1 1, 0 0))"}]}}`))
	f.Add([]byte(`{"reference":{"type":"d","features":[{"id":"x","wkt":"POINT(NaN Inf)"}]}}`))
	f.Add([]byte(`{"Reference":{"TYPE":"\u00e9\ud800","features":[{"iD":"\"","wkt":"POINT\u0020(1 2)",` +
		`"attrs":{"n":-0.5e-3,"o":{"p":[true,null]},"s":"\u2028"}}]},"nonSpatialAttrs":[null,"x"],"x":[{}]}`))
	f.Add([]byte(`{"reference":{"type":"d","features":[{"id":"a","wkt":"POINT(1 2)"}],"features":[{"id":"b"}]}}`))
	f.Add([]byte(`{"reference":{}} garbage`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[`))
	f.Add([]byte("\x00\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := oracleReadJSON(data)
		ds, err := ReadJSON(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("reader and oracle disagree on %q:\nreader: %v\noracle: %v", data, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(ds, want) {
			t.Fatalf("reader and oracle decode %q differently:\nreader: %#v\noracle: %#v", data, ds, want)
		}
		// Accepted input must be internally consistent and re-encodable.
		_ = ds.Validate()
		var out bytes.Buffer
		if err := ds.WriteJSON(&out); err != nil {
			return
		}
		if _, err := ReadJSON(&out); err != nil {
			t.Fatalf("round trip broke: %v\ninput: %q", err, data)
		}
	})
}

func FuzzReadGeoJSON(f *testing.F) {
	f.Add([]byte(`{"type":"FeatureCollection","features":[]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","id":"a","geometry":{"type":"Point","coordinates":[1,2]},"properties":{"k":"v"}}]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0,0],[1,0],[1,1],[0,0]]]}}]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","geometry":{"type":"LineString","coordinates":[[0,0],[2,3]]}}]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","geometry":{"type":"Polygon","coordinates":[]}}]}`))
	f.Add([]byte(`{"type":"FeatureCollection","features":[{"type":"Feature","geometry":null}]}`))
	f.Add([]byte(`{"type":"Polygon"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadGeoJSON(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		_ = l.Validate()
		var out bytes.Buffer
		if err := l.WriteGeoJSON(&out); err != nil {
			return
		}
		if _, err := ReadGeoJSON(&out, "fuzz"); err != nil {
			t.Fatalf("round trip broke: %v\ninput: %q", err, data)
		}
	})
}

func FuzzReadTableCSV(f *testing.F) {
	f.Add("r1,a,b\nr2,a,c\n")
	f.Add("# comment\nr1,a\n\nr2,b,b,b\n")
	f.Add("r1, padded , items \n")
	f.Add("r1,a\nr1,b\n") // duplicate reference IDs
	f.Add(",missing-ref\n")
	f.Add("lonely-ref\n")
	f.Add("r1,\"quoted,item\",b\n")
	f.Add("\x00")
	f.Add(strings.Repeat(",", 100))

	f.Fuzz(func(t *testing.T, data string) {
		tab, err := ReadTableCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		// Accepted tables must be well-formed and re-encodable.
		for _, tx := range tab.Transactions {
			if tx.RefID == "" {
				t.Fatalf("accepted transaction with empty reference ID from %q", data)
			}
		}
		var out bytes.Buffer
		if err := tab.WriteTableCSV(&out); err != nil {
			t.Fatalf("re-encoding accepted table: %v", err)
		}
		back, err := ReadTableCSV(&out)
		if err != nil {
			t.Fatalf("round trip broke: %v\ninput: %q", err, data)
		}
		if back.Len() != tab.Len() {
			t.Fatalf("round trip changed row count %d -> %d for %q", tab.Len(), back.Len(), data)
		}
	})
}

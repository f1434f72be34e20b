package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/geom"
)

// The reflective encoding/json codec the single-pass one replaced. It is
// the oracle the codec tests compare against: WriteJSON must match
// oracleWriteJSON byte for byte, and ReadJSON must accept exactly what
// oracleReadJSON accepts, decoding to a reflect.DeepEqual dataset.

type jsonDataset struct {
	Reference       jsonLayer   `json:"reference"`
	Relevant        []jsonLayer `json:"relevant"`
	NonSpatialAttrs []string    `json:"nonSpatialAttrs,omitempty"`
}

type jsonLayer struct {
	Type     string        `json:"type"`
	Features []jsonFeature `json:"features"`
}

type jsonFeature struct {
	ID    string           `json:"id"`
	WKT   string           `json:"wkt"`
	Attrs map[string]Value `json:"attrs,omitempty"`
}

func oracleWriteJSON(d *Dataset, w io.Writer) error {
	jd := jsonDataset{
		Reference:       layerToJSON(d.Reference),
		NonSpatialAttrs: d.NonSpatialAttrs,
	}
	for _, l := range d.Relevant {
		jd.Relevant = append(jd.Relevant, layerToJSON(l))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jd)
}

func layerToJSON(l *Layer) jsonLayer {
	jl := jsonLayer{Type: l.Type}
	for i := range l.Features {
		f := &l.Features[i]
		jf := jsonFeature{ID: f.ID, Attrs: f.Attrs}
		if f.Geometry != nil {
			jf.WKT = f.Geometry.WKT()
		}
		jl.Features = append(jl.Features, jf)
	}
	return jl
}

// oracleReadJSON is the reflective decode, preceded by a token walk that
// enforces the two rules the reflective decode lacks: no data after the
// document, and no schema key twice in one object.
func oracleReadJSON(data []byte) (*Dataset, error) {
	if err := checkDocument(data); err != nil {
		return nil, err
	}
	var jd jsonDataset
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&jd); err != nil {
		return nil, fmt.Errorf("dataset: decoding JSON: %w", err)
	}
	ref, err := layerFromJSON(jd.Reference)
	if err != nil {
		return nil, err
	}
	d := &Dataset{Reference: ref, NonSpatialAttrs: jd.NonSpatialAttrs}
	for _, jl := range jd.Relevant {
		l, err := layerFromJSON(jl)
		if err != nil {
			return nil, err
		}
		d.Relevant = append(d.Relevant, l)
	}
	return d, nil
}

func layerFromJSON(jl jsonLayer) (*Layer, error) {
	l := NewLayer(jl.Type)
	for _, jf := range jl.Features {
		g, err := geom.ParseWKT(jf.WKT)
		if err != nil {
			return nil, fmt.Errorf("dataset: layer %q feature %q: %w", jl.Type, jf.ID, err)
		}
		l.Add(Feature{ID: jf.ID, Geometry: g, Attrs: jf.Attrs})
	}
	return l, nil
}

// schema is the object kind a token-walk position expects.
type schema int

const (
	schemaNone schema = iota
	schemaDataset
	schemaLayer
	schemaFeature
	schemaLayerList
	schemaFeatureList
)

// fields lists an object kind's schema keys and what each key's value is.
func (s schema) fields() map[string]schema {
	switch s {
	case schemaDataset:
		return map[string]schema{"reference": schemaLayer, "relevant": schemaLayerList, "nonSpatialAttrs": schemaNone}
	case schemaLayer:
		return map[string]schema{"type": schemaNone, "features": schemaFeatureList}
	case schemaFeature:
		return map[string]schema{"id": schemaNone, "wkt": schemaNone, "attrs": schemaNone}
	}
	return nil
}

func (s schema) elem() schema {
	switch s {
	case schemaLayerList:
		return schemaLayer
	case schemaFeatureList:
		return schemaFeature
	}
	return schemaNone
}

// checkDocument walks the first JSON value with a json.Decoder, failing
// on a schema key repeated (case-insensitively) within one object, then
// requires the input to end after it.
func checkDocument(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := walkValue(dec, schemaDataset); err != nil {
		return fmt.Errorf("dataset: decoding JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("dataset: decoding JSON: data after the document")
	}
	return nil
}

func walkValue(dec *json.Decoder, s schema) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	switch tok {
	case json.Delim('{'):
		fields := s.fields()
		seen := map[string]bool{}
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				return err
			}
			key := tok.(string)
			child := schemaNone
			for name, sub := range fields {
				if strings.EqualFold(key, name) {
					if seen[name] {
						return fmt.Errorf("duplicate key %q", key)
					}
					seen[name] = true
					child = sub
				}
			}
			if err := walkValue(dec, child); err != nil {
				return err
			}
		}
		_, err = dec.Token()
	case json.Delim('['):
		for dec.More() {
			if err := walkValue(dec, s.elem()); err != nil {
				return err
			}
		}
		_, err = dec.Token()
	}
	return err
}

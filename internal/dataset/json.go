package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/geom"
)

// The scene file format is WKT-JSON: geometries are WKT strings inside
// plain indented JSON, so files are diffable and editable. A document
// looks like
//
//	{
//	  "reference": {"type": "district", "features": [
//	    {"id": "d1", "wkt": "POLYGON ((...))", "attrs": {"k": "v"}}, ...]},
//	  "relevant": [{"type": "slum", "features": [...]}, ...],
//	  "nonSpatialAttrs": ["k"]
//	}
//
// (indented two spaces per level by WriteJSON). The codec below writes
// and reads it in one pass over a byte buffer; the output is byte for
// byte what encoding/json's indenting encoder produced for the same
// document, so content digests of written scenes are stable.

// WriteJSON serialises the dataset to w as indented JSON.
func (d *Dataset) WriteJSON(w io.Writer) error {
	buf, err := d.AppendJSON(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendJSON appends the WriteJSON document to dst and returns the
// extended buffer. Callers that know roughly how large the document is
// (a successor of a stored scene, say) presize dst to write it without
// regrowing.
func (d *Dataset) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, "{\n  \"reference\": "...)
	if dst, err = appendLayerJSON(dst, d.Reference, 1); err != nil {
		return nil, err
	}
	dst = append(dst, ",\n  \"relevant\": "...)
	if len(d.Relevant) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, l := range d.Relevant {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendIndent(dst, 2)
			if dst, err = appendLayerJSON(dst, l, 2); err != nil {
				return nil, err
			}
		}
		dst = appendIndent(dst, 1)
		dst = append(dst, ']')
	}
	if len(d.NonSpatialAttrs) > 0 {
		dst = append(dst, ",\n  \"nonSpatialAttrs\": ["...)
		for i, a := range d.NonSpatialAttrs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendIndent(dst, 2)
			dst = appendJSONString(dst, a)
		}
		dst = appendIndent(dst, 1)
		dst = append(dst, ']')
	}
	return append(dst, "\n}\n"...), nil
}

// SaveJSON writes the dataset to a file.
func (d *Dataset) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: saving %s: %w", path, err)
	}
	defer f.Close()
	if err := d.WriteJSON(f); err != nil {
		return fmt.Errorf("dataset: saving %s: %w", path, err)
	}
	return f.Close()
}

// indentSpaces holds a newline and enough indentation for the deepest
// level the dataset schema itself opens; attr values nest further
// through json.MarshalIndent.
const indentSpaces = "\n            "

// appendIndent starts a new line at the given nesting level.
func appendIndent(dst []byte, level int) []byte {
	return append(dst, indentSpaces[:1+2*level]...)
}

// appendLayerJSON writes one layer object opened at nesting level k.
func appendLayerJSON(dst []byte, l *Layer, k int) ([]byte, error) {
	dst = append(dst, '{')
	dst = appendIndent(dst, k+1)
	dst = append(dst, `"type": `...)
	dst = appendJSONString(dst, l.Type)
	dst = append(dst, ',')
	dst = appendIndent(dst, k+1)
	dst = append(dst, `"features": `...)
	if len(l.Features) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		var keys []string
		for i := range l.Features {
			f := &l.Features[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendIndent(dst, k+2)
			dst = append(dst, '{')
			dst = appendIndent(dst, k+3)
			dst = append(dst, `"id": `...)
			dst = appendJSONString(dst, f.ID)
			dst = append(dst, ',')
			dst = appendIndent(dst, k+3)
			dst = append(dst, `"wkt": `...)
			dst = appendWKTString(dst, f.Geometry)
			if len(f.Attrs) > 0 {
				var err error
				dst = append(dst, ',')
				dst = appendIndent(dst, k+3)
				dst = append(dst, `"attrs": `...)
				if dst, keys, err = appendAttrsJSON(dst, f.Attrs, k+3, keys); err != nil {
					return nil, err
				}
			}
			dst = appendIndent(dst, k+2)
			dst = append(dst, '}')
		}
		dst = appendIndent(dst, k+1)
		dst = append(dst, ']')
	}
	dst = appendIndent(dst, k)
	return append(dst, '}'), nil
}

// appendAttrsJSON writes a non-empty attrs object opened at level k, keys
// sorted as encoding/json sorts map keys. String values are written
// directly; every other value goes through json.MarshalIndent with the
// member's indentation as prefix, which lays it out exactly as the
// indenting encoder would in place. keys is scratch space, returned for
// reuse.
func appendAttrsJSON(dst []byte, attrs map[string]Value, k int, keys []string) ([]byte, []string, error) {
	keys = keys[:0]
	for key := range attrs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	dst = append(dst, '{')
	for i, key := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendIndent(dst, k+1)
		dst = appendJSONString(dst, key)
		dst = append(dst, ": "...)
		if s, ok := attrs[key].(string); ok {
			dst = appendJSONString(dst, s)
			continue
		}
		b, err := json.MarshalIndent(attrs[key], indentSpaces[1:1+2*(k+1)], "  ")
		if err != nil {
			return nil, keys, err
		}
		dst = append(dst, b...)
	}
	dst = appendIndent(dst, k)
	return append(dst, '}'), keys, nil
}

// appendWKTString writes g's WKT as a JSON string ("" for a nil
// geometry). AppendWKT writes printable ASCII without quotes or
// backslashes, which needs no escaping.
func appendWKTString(dst []byte, g geom.Geometry) []byte {
	dst = append(dst, '"')
	if g != nil {
		dst = geom.AppendWKT(dst, g)
	}
	return append(dst, '"')
}

// jsonSafe marks the ASCII bytes encoding/json writes unescaped inside
// a string with HTML escaping on (its default): printable ASCII except
// '"', '\\', '<', '>' and '&'. DEL is written as is.
var jsonSafe = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString writes s as a JSON string exactly as encoding/json
// does with HTML escaping on: short escapes for \b \f \n \r \t and the
// quote and backslash, \u00XX for other control bytes and for <, > and &,
// \u2028 and \u2029 for the two JavaScript line separators, and \ufffd
// for each byte of invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < 0x80 {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ReadJSON parses a dataset from r; see WriteJSON for the format and
// ParseJSON for what is accepted. The body is read into one buffer,
// sized up front when r reports its remaining length (bytes.Reader,
// bytes.Buffer, strings.Reader).
func ReadJSON(r io.Reader) (*Dataset, error) {
	var body bytes.Buffer
	if lr, ok := r.(interface{ Len() int }); ok {
		// ReadFrom keeps MinRead bytes free for the read that reports EOF.
		body.Grow(lr.Len() + bytes.MinRead)
	}
	if _, err := body.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("dataset: decoding JSON: %w", err)
	}
	return ParseJSON(body.Bytes())
}

// LoadJSON reads a dataset from a file.
func LoadJSON(path string) (*Dataset, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: loading %s: %w", path, err)
	}
	d, err := ParseJSON(body)
	if err != nil {
		return nil, fmt.Errorf("dataset: loading %s: %w", path, err)
	}
	return d, nil
}

// WriteTableCSV writes the transaction table in a simple CSV-ish format:
// one line per transaction, reference ID first, then comma-separated
// items. Readable by ReadTableCSV and by eyeball.
func (t *Table) WriteTableCSV(w io.Writer) error {
	for _, tx := range t.Transactions {
		if _, err := fmt.Fprintf(w, "%s", tx.RefID); err != nil {
			return err
		}
		for _, it := range tx.Items {
			if _, err := fmt.Fprintf(w, ",%s", it); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// ReadTableCSV parses the WriteTableCSV format: one transaction per line,
// "refID,item,item,...". Blank lines and lines starting with '#' are
// skipped; items are normalised (sorted, deduplicated).
func ReadTableCSV(r io.Reader) (*Table, error) {
	var rows []Transaction
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if fields[0] == "" {
			return nil, fmt.Errorf("dataset: line %d: empty reference ID", lineNo)
		}
		items := make([]string, 0, len(fields)-1)
		for _, f := range fields[1:] {
			if f = strings.TrimSpace(f); f != "" {
				items = append(items, f)
			}
		}
		rows = append(rows, Transaction{RefID: fields[0], Items: items})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading table: %w", err)
	}
	return NewTable(rows), nil
}

// LoadTableCSV reads a transaction table from a file.
func LoadTableCSV(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: loading %s: %w", path, err)
	}
	defer f.Close()
	t, err := ReadTableCSV(f)
	if err != nil {
		return nil, fmt.Errorf("dataset: loading %s: %w", path, err)
	}
	return t, nil
}

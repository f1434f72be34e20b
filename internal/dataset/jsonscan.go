package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/geom"
)

// ParseJSON decodes a WKT-JSON dataset document (see WriteJSON) held in
// b. It walks b once in place: strings and WKT coordinates are read
// straight from the buffer, and the result does not alias b.
//
// What it accepts is what a reflective encoding/json decode of the
// document accepts, with two tightenings:
//
//   - only whitespace may follow the document;
//   - a schema key (reference, relevant, nonSpatialAttrs; type,
//     features; id, wkt, attrs) may occur once per object. Keys match
//     the schema case-insensitively, so "type" and "Type" collide.
//
// Otherwise encoding/json's rules hold: the syntax is checked in full,
// unknown keys are skipped, a null leaves the field at its zero value,
// a value of the wrong JSON type is an error, escaped strings (invalid
// UTF-8 and lone surrogates included) decode to the same Go strings,
// and attr values decode as into an interface{}: numbers to float64,
// objects and arrays through json.Unmarshal. Every feature's WKT must
// parse (geom.ParseWKT).
func ParseJSON(b []byte) (*Dataset, error) {
	p := sceneParser{b: b}
	d, err := p.document()
	if err == nil {
		err = p.deferred
	}
	if err == nil {
		err = p.wktErr
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// maxNestingDepth mirrors encoding/json's scanner limit on nested
// objects and arrays.
const maxNestingDepth = 10000

// sceneParser is the scanner state: the document and a read offset.
//
// Errors rank as in the reflective decode, which parsed the WKT only
// after encoding/json had finished. A syntax error stops the walk at
// once. A wrong-type value is recorded in deferred and an unparsable
// WKT in wktErr (the first of each wins), and the walk goes on: a
// syntax error anywhere beats a wrong-type value, which beats an
// unparsable WKT.
type sceneParser struct {
	b        []byte
	i        int
	deferred error
	wktErr   error
}

func (p *sceneParser) syntaxError(format string, args ...any) error {
	return fmt.Errorf("dataset: decoding JSON: offset %d: %s", p.i, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at the read offset, or the end of input.
func (p *sceneParser) unexpected(context string) error {
	if p.i >= len(p.b) {
		return p.syntaxError("unexpected end of input %s", context)
	}
	return p.syntaxError("invalid character %q %s", p.b[p.i], context)
}

func (p *sceneParser) typeError(want string) {
	if p.deferred == nil {
		p.deferred = fmt.Errorf("dataset: decoding JSON: offset %d: cannot decode %s into %s", p.i, p.kindAt(), want)
	}
}

// kindAt names the JSON type of the value starting at the read offset.
func (p *sceneParser) kindAt() string {
	switch p.b[p.i] {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

// ws skips JSON whitespace and reports whether input remains.
func (p *sceneParser) ws() bool {
	b, i := p.b, p.i
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	p.i = i
	return i < len(b)
}

// document parses the top-level value: the dataset object, or null for
// an empty dataset, and nothing but whitespace after it.
func (p *sceneParser) document() (*Dataset, error) {
	if !p.ws() {
		return nil, p.unexpected("at the start of the document")
	}
	d := &Dataset{Reference: NewLayer("")}
	var err error
	switch p.b[p.i] {
	case '{':
		err = p.object(0, datasetKeys, func(field, depth int) error {
			switch field {
			case 0:
				return p.layerInto(d.Reference, depth)
			case 1:
				return p.layers(d, depth)
			default:
				return p.stringList(&d.NonSpatialAttrs, depth)
			}
		})
	case 'n':
		err = p.literal("null")
	default:
		p.typeError("a dataset object")
		err = p.skip(0)
	}
	if err != nil {
		return nil, err
	}
	if p.ws() {
		return nil, p.syntaxError("invalid character %q after the document", p.b[p.i])
	}
	return d, nil
}

// The schema keys of each object kind; a member's field number is its
// index here.
var (
	datasetKeys = []string{"reference", "relevant", "nonSpatialAttrs"}
	layerKeys   = []string{"type", "features"}
	featureKeys = []string{"id", "wkt", "attrs"}
)

// members walks the object whose '{' is at the read offset, opened
// inside a container at nesting depth depth, calling member for each
// member with its raw key (see str) and the object's own depth. member
// must consume the value.
func (p *sceneParser) members(depth int, member func(key []byte, plain bool, depth int) error) error {
	depth++
	if depth > maxNestingDepth {
		return p.syntaxError("exceeded max depth")
	}
	p.i++ // '{'
	if !p.ws() {
		return p.unexpected("in object")
	}
	if p.b[p.i] == '}' {
		p.i++
		return nil
	}
	for {
		if p.b[p.i] != '"' {
			return p.unexpected("looking for beginning of object key string")
		}
		key, plain, err := p.str()
		if err != nil {
			return err
		}
		if !p.ws() || p.b[p.i] != ':' {
			return p.unexpected("after object key")
		}
		p.i++
		if !p.ws() {
			return p.unexpected("looking for beginning of value")
		}
		if err := member(key, plain, depth); err != nil {
			return err
		}
		if !p.ws() {
			return p.unexpected("after object key:value pair")
		}
		switch p.b[p.i] {
		case ',':
			p.i++
			if !p.ws() {
				return p.unexpected("looking for beginning of object key string")
			}
		case '}':
			p.i++
			return nil
		default:
			return p.unexpected("after object key:value pair")
		}
	}
}

// object walks a schema object. Members whose key matches one of keys
// (exactly, else case-insensitively) go to field with the key's index;
// other members are skipped. A second member for the same key is an
// error.
func (p *sceneParser) object(depth int, keys []string, field func(field, depth int) error) error {
	var seen uint
	return p.members(depth, func(key []byte, plain bool, depth int) error {
		f := matchKey(key, plain, keys)
		if f < 0 {
			return p.skip(depth)
		}
		if seen&(1<<f) != 0 {
			return p.syntaxError("duplicate key %q (matches %q)", unquote(key, plain), keys[f])
		}
		seen |= 1 << f
		return field(f, depth)
	})
}

// matchKey returns the index of the schema key that key (raw string
// contents) selects under encoding/json's rules, or -1.
func matchKey(raw []byte, plain bool, keys []string) int {
	key := raw
	if !plain {
		key = []byte(unquote(raw, plain))
	}
	for i, k := range keys {
		if string(key) == k {
			return i
		}
	}
	for i, k := range keys {
		if bytes.EqualFold(key, []byte(k)) {
			return i
		}
	}
	return -1
}

// array walks the array whose '[' is at the read offset, calling elem
// for each element with the array's own depth.
func (p *sceneParser) array(depth int, elem func(depth int) error) error {
	depth++
	if depth > maxNestingDepth {
		return p.syntaxError("exceeded max depth")
	}
	p.i++ // '['
	if !p.ws() {
		return p.unexpected("in array")
	}
	if p.b[p.i] == ']' {
		p.i++
		return nil
	}
	for {
		if err := elem(depth); err != nil {
			return err
		}
		if !p.ws() {
			return p.unexpected("after array element")
		}
		switch p.b[p.i] {
		case ',':
			p.i++
			if !p.ws() {
				return p.unexpected("looking for beginning of value")
			}
		case ']':
			p.i++
			return nil
		default:
			return p.unexpected("after array element")
		}
	}
}

// expect handles the null and wrong-type cases shared by every typed
// field: it reports whether the value at the read offset starts with
// open, and otherwise consumes it — null silently, anything else as a
// deferred type error.
func (p *sceneParser) expect(open byte, want string, depth int) (bool, error) {
	switch c := p.b[p.i]; {
	case c == open:
		return true, nil
	case c == 'n':
		return false, p.literal("null")
	default:
		p.typeError(want)
		return false, p.skip(depth)
	}
}

// layers reads the "relevant" array.
func (p *sceneParser) layers(d *Dataset, depth int) error {
	if ok, err := p.expect('[', "a layer list", depth); !ok {
		return err
	}
	return p.array(depth, func(depth int) error {
		l := NewLayer("")
		d.Relevant = append(d.Relevant, l)
		return p.layerInto(l, depth)
	})
}

// layerInto reads one layer object into l.
func (p *sceneParser) layerInto(l *Layer, depth int) error {
	if ok, err := p.expect('{', "a layer object", depth); !ok {
		return err
	}
	return p.object(depth, layerKeys, func(field, depth int) error {
		if field == 0 {
			return p.stringInto(&l.Type, depth)
		}
		if ok, err := p.expect('[', "a feature list", depth); !ok {
			return err
		}
		return p.array(depth, func(depth int) error {
			return p.feature(l, depth)
		})
	})
}

// feature reads one feature object, parses its WKT and appends it to l.
func (p *sceneParser) feature(l *Layer, depth int) error {
	var (
		f        Feature
		wkt      []byte
		wktPlain = true
	)
	if c := p.b[p.i]; c == '{' {
		err := p.object(depth, featureKeys, func(field, depth int) error {
			switch field {
			case 0:
				return p.stringInto(&f.ID, depth)
			case 1:
				if ok, err := p.expect('"', "a string", depth); !ok {
					wkt, wktPlain = nil, true
					return err
				}
				var err error
				wkt, wktPlain, err = p.str()
				return err
			default:
				return p.attrs(&f.Attrs, depth)
			}
		})
		if err != nil {
			return err
		}
	} else if _, err := p.expect('{', "a feature object", depth); err != nil {
		return err
	}
	var err error
	if wktPlain {
		f.Geometry, err = geom.ParseWKTBytes(wkt)
	} else {
		f.Geometry, err = geom.ParseWKT(unquote(wkt, false))
	}
	if err != nil && p.wktErr == nil {
		// The layer's type may follow its features in the document;
		// name it once the layer is complete.
		p.wktErr = &featureError{layer: l, id: f.ID, err: err}
	}
	l.Features = append(l.Features, f)
	return nil
}

// featureError is an unparsable feature WKT, formatted when reported so
// it names the layer type even if that followed the features.
type featureError struct {
	layer *Layer
	id    string
	err   error
}

func (e *featureError) Error() string {
	return fmt.Sprintf("dataset: layer %q feature %q: %v", e.layer.Type, e.id, e.err)
}

func (e *featureError) Unwrap() error { return e.err }

// attrs reads a feature's attrs object. Any JSON object is accepted;
// later duplicates of an attribute name win, as in a map decode.
func (p *sceneParser) attrs(dst *map[string]Value, depth int) error {
	if ok, err := p.expect('{', "an attrs object", depth); !ok {
		return err
	}
	m := make(map[string]Value)
	*dst = m
	return p.members(depth, func(key []byte, plain bool, depth int) error {
		v, err := p.attrValue(depth)
		m[unquote(key, plain)] = v
		return err
	})
}

// attrValue decodes one attr value as encoding/json decodes into an
// interface{}. Scalars are read here; objects and arrays are delimited
// (and syntax-checked) by skip, then handed to json.Unmarshal.
func (p *sceneParser) attrValue(depth int) (Value, error) {
	start := p.i
	switch c := p.b[p.i]; c {
	case '"':
		raw, plain, err := p.str()
		return unquote(raw, plain), err
	case 't':
		return true, p.literal("true")
	case 'f':
		return false, p.literal("false")
	case 'n':
		return nil, p.literal("null")
	case '{', '[':
		if err := p.skip(depth); err != nil {
			return nil, err
		}
		var v any
		if err := json.Unmarshal(p.b[start:p.i], &v); err != nil {
			if p.deferred == nil {
				p.deferred = fmt.Errorf("dataset: decoding JSON: %w", err)
			}
			return nil, nil
		}
		return v, nil
	}
	raw, err := p.number()
	if err != nil {
		return nil, err
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		if p.deferred == nil {
			p.deferred = fmt.Errorf("dataset: decoding JSON: offset %d: number %s does not fit a float64", start, raw)
		}
		return nil, nil
	}
	return f, nil
}

// stringInto reads a string field; null leaves *dst unchanged.
func (p *sceneParser) stringInto(dst *string, depth int) error {
	if ok, err := p.expect('"', "a string", depth); !ok {
		return err
	}
	raw, plain, err := p.str()
	*dst = unquote(raw, plain)
	return err
}

// stringList reads the nonSpatialAttrs array. Like encoding/json, an
// empty array yields an empty non-nil slice and a null element "".
func (p *sceneParser) stringList(dst *[]string, depth int) error {
	if ok, err := p.expect('[', "a string list", depth); !ok {
		return err
	}
	*dst = []string{}
	return p.array(depth, func(depth int) error {
		*dst = append(*dst, "")
		return p.stringInto(&(*dst)[len(*dst)-1], depth)
	})
}

// skip consumes one value of any type, checking its syntax in full.
func (p *sceneParser) skip(depth int) error {
	switch c := p.b[p.i]; {
	case c == '{':
		return p.members(depth, func(_ []byte, _ bool, depth int) error {
			return p.skip(depth)
		})
	case c == '[':
		return p.array(depth, func(depth int) error {
			return p.skip(depth)
		})
	case c == '"':
		_, _, err := p.str()
		return err
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	case c == '-' || (c >= '0' && c <= '9'):
		_, err := p.number()
		return err
	}
	return p.unexpected("looking for beginning of value")
}

// literal consumes the keyword word.
func (p *sceneParser) literal(word string) error {
	if len(p.b)-p.i >= len(word) && string(p.b[p.i:p.i+len(word)]) == word {
		p.i += len(word)
		return nil
	}
	for j := 0; j < len(word); j++ {
		if p.i >= len(p.b) || p.b[p.i] != word[j] {
			return p.unexpected("in literal " + word)
		}
		p.i++
	}
	return nil
}

// number consumes a JSON number and returns its text.
func (p *sceneParser) number() ([]byte, error) {
	b, start := p.b, p.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := func() int {
		n := 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
			n++
		}
		return n
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		p.i = i
		return nil, p.unexpected("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			p.i = i
			return nil, p.unexpected("after decimal point in numeric literal")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			p.i = i
			return nil, p.unexpected("in exponent of numeric literal")
		}
	}
	p.i = i
	return b[start:i], nil
}

// str consumes a string whose opening quote is at the read offset and
// returns its raw contents, validated. plain reports that the contents
// are ASCII without escapes, so they are the decoded string as is.
func (p *sceneParser) str() (raw []byte, plain bool, err error) {
	b := p.b
	start := p.i + 1
	plain = true
	for i := start; i < len(b); {
		for i < len(b) && plainByte[b[i]] {
			i++
		}
		if i == len(b) {
			break
		}
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			return b[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(b) {
				p.i = len(b)
				return nil, false, p.unexpected("in string escape code")
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(b) || !isHex(b[j]) {
						p.i = j
						return nil, false, p.unexpected("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				p.i = i + 1
				return nil, false, p.unexpected("in string escape code")
			}
		case c < 0x20:
			p.i = i
			return nil, false, p.unexpected("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	p.i = len(b)
	return nil, false, p.unexpected("in string literal")
}

// plainByte marks the bytes a string may hold that neither end it, nor
// start an escape, nor need UTF-8 validation.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// unquote decodes validated string contents (see str) exactly as
// encoding/json does: escapes are resolved, a valid surrogate pair
// becomes one rune and any other surrogate escape U+FFFD, and each byte
// of invalid UTF-8 becomes U+FFFD.
func unquote(raw []byte, plain bool) string {
	if plain || (bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw)) {
		return string(raw)
	}
	out := make([]byte, 0, len(raw)+2*utf8.UTFMax)
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			switch raw[r+1] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := getu4(raw[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if rr1 := getu4(raw[r:]); rr1 >= 0 {
						if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
							r += 6
							out = utf8.AppendRune(out, dec)
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, rr)
				continue
			default: // '"', '\\', '/'
				out = append(out, raw[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	return string(out)
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c = c - '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

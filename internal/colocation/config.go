package colocation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ParseConfig decodes and validates a co-location configuration from
// its JSON wire form. Decoding is strict — unknown fields and trailing
// data are errors — so the CLI, the /v1/colocate handler, and the fuzz
// target all accept exactly the same documents.
func ParseConfig(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("colocation: decoding config: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return Config{}, fmt.Errorf("colocation: trailing data after config document")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// UnmarshalJSON decodes the wire form strictly: an unknown member is an
// error wherever a Config is embedded, since a decoder's
// DisallowUnknownFields does not reach a custom unmarshaler. The
// retired "engine" member is accepted and ignored when it names one of
// the former strategies ("joinless" or "clique"), so documents written
// for older servers keep decoding; any other engine is an error.
func (c *Config) UnmarshalJSON(data []byte) error {
	type plain Config // no methods: decodes without recursing here
	wire := struct {
		plain
		Engine *string `json:"engine"`
	}{plain: plain(*c)}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return err
	}
	if e := wire.Engine; e != nil && *e != "" && *e != "joinless" && *e != "clique" {
		return fmt.Errorf("colocation: unknown engine %q (the engine member is retired; only %q and %q are still accepted)", *e, "joinless", "clique")
	}
	*c = Config(wire.plain)
	return nil
}

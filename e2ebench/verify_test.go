package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

func sampleOutcome(t *testing.T) (core.Config, *core.Outcome) {
	t.Helper()
	cfg := core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.3, GenerateRules: true, MinConfidence: 0.7}
	out, err := core.RunTableContext(context.Background(), dataset.PortoAlegreTable(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Result.Frequent) < 2 || len(out.Rules) == 0 {
		t.Fatalf("sample too small: %d itemsets, %d rules", len(out.Result.Frequent), len(out.Rules))
	}
	return cfg, out
}

// cliOutput renders doc the way qsrmine -format json prints it.
func cliOutput(t *testing.T, doc cliDoc, micros int64) []byte {
	t.Helper()
	doc.MiningMicros = micros
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCLIVerifierRejectsFlippedSupport(t *testing.T) {
	cfg, out := sampleOutcome(t)
	want := expectedCLIDoc(cfg, out)
	v := &cliVerifier{want: want}
	if err := v.check(cliOutput(t, want, 123)); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	// Passes the byte-identical fast path with another timing value.
	if err := v.check(cliOutput(t, want, 98765)); err != nil {
		t.Fatalf("correct output with another miningMicros rejected: %v", err)
	}
	bad := want
	bad.Frequent = append(bad.Frequent[:0:0], want.Frequent...)
	bad.Frequent[len(bad.Frequent)-1].Support++
	if err := v.check(cliOutput(t, bad, 123)); err == nil {
		t.Fatal("output with one support flipped was accepted")
	}
	if err := v.check([]byte(`{"algorithm":"apriori-kc+"}`)); err == nil {
		t.Fatal("output without miningMicros was accepted")
	}
}

func TestResponseDigestRejectsFlippedSupport(t *testing.T) {
	cfg, out := sampleOutcome(t)
	want, err := responseDigest(mineResponse("d", cfg, out))
	if err != nil {
		t.Fatal(err)
	}
	resp := mineResponse("d", cfg, out)
	resp.Cached, resp.MiningMicros = true, 42
	if got, _ := responseDigest(resp); got != want {
		t.Fatal("a cached response with another mining time does not verify")
	}
	resp.Frequent[0].Support++
	if got, _ := responseDigest(resp); got == want {
		t.Fatal("a response with one support flipped verifies")
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"

	"repro/api"
	"repro/internal/colocation"
	"repro/internal/core"
)

// cliDoc mirrors the document qsrmine -format json prints: frequent
// itemsets of size >= 2 and, with -rules, the association rules.
type cliDoc struct {
	Algorithm         string              `json:"algorithm"`
	Transactions      int                 `json:"transactions"`
	MinSupportCount   int                 `json:"minSupportCount"`
	PrunedDeps        int                 `json:"prunedDependencies"`
	PrunedSameFeature int                 `json:"prunedSameFeature"`
	MiningMicros      int64               `json:"miningMicros"`
	Frequent          []api.ItemsetResult `json:"frequent"`
	Rules             []api.RuleResult    `json:"rules,omitempty"`
}

// expectedCLIDoc is the document qsrmine must print for a reference
// outcome, with the timing field zeroed.
func expectedCLIDoc(cfg core.Config, out *core.Outcome) cliDoc {
	res := out.Result
	doc := cliDoc{
		Algorithm:         cfg.Algorithm.String(),
		Transactions:      res.NumTransactions,
		MinSupportCount:   res.MinSupportCount,
		PrunedDeps:        res.PrunedDeps,
		PrunedSameFeature: res.PrunedSameFeature,
	}
	for _, f := range res.Frequent {
		if len(f.Items) >= 2 {
			doc.Frequent = append(doc.Frequent, api.ItemsetResult{Items: f.Items.Names(out.DB.Dict), Support: f.Support})
		}
	}
	if cfg.GenerateRules {
		doc.Rules = ruleResults(out)
	}
	return doc
}

// cliVerifier checks qsrmine outputs against the reference document. An
// output that is byte-identical to one already verified (outside its
// miningMicros value) passes without decoding again.
type cliVerifier struct {
	want     cliDoc
	known    []byte
	knownCut [2]int
}

func (v *cliVerifier) check(out []byte) error {
	start, end, ok := microsSpan(out)
	if !ok {
		return fmt.Errorf("output has no miningMicros field (%d bytes)", len(out))
	}
	if v.known != nil && bytes.Equal(out[:start], v.known[:v.knownCut[0]]) && bytes.Equal(out[end:], v.known[v.knownCut[1]:]) {
		return nil
	}
	var got cliDoc
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		return fmt.Errorf("decoding output: %w", err)
	}
	got.MiningMicros = 0
	if err := diffCLIDoc(got, v.want); err != nil {
		return err
	}
	v.known = append(v.known[:0], out...)
	v.knownCut = [2]int{start, end}
	return nil
}

// microsSpan locates the digits of the "miningMicros" value in out.
func microsSpan(out []byte) (start, end int, ok bool) {
	key := []byte(`"miningMicros":`)
	i := bytes.Index(out, key)
	if i < 0 {
		return 0, 0, false
	}
	start = i + len(key)
	for start < len(out) && out[start] == ' ' {
		start++
	}
	end = start
	for end < len(out) && out[end] >= '0' && out[end] <= '9' {
		end++
	}
	return start, end, end > start
}

// diffCLIDoc names the first difference between two documents.
func diffCLIDoc(got, want cliDoc) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	if len(got.Frequent) != len(want.Frequent) {
		return fmt.Errorf("%d frequent itemsets, want %d", len(got.Frequent), len(want.Frequent))
	}
	for i := range want.Frequent {
		if !reflect.DeepEqual(got.Frequent[i], want.Frequent[i]) {
			return fmt.Errorf("frequent[%d] = %v, want %v", i, got.Frequent[i], want.Frequent[i])
		}
	}
	if len(got.Rules) != len(want.Rules) {
		return fmt.Errorf("%d rules, want %d", len(got.Rules), len(want.Rules))
	}
	for i := range want.Rules {
		if !reflect.DeepEqual(got.Rules[i], want.Rules[i]) {
			return fmt.Errorf("rules[%d] = %v, want %v", i, got.Rules[i], want.Rules[i])
		}
	}
	got.Frequent, got.Rules, want.Frequent, want.Rules = nil, nil, nil, nil
	return fmt.Errorf("header %+v, want %+v", got, want)
}

// mineResponse is the /v1/mine response a server must return for a
// reference outcome (the wire form of core.Outcome, all itemset sizes).
func mineResponse(digest string, cfg core.Config, out *core.Outcome) *api.MineResponse {
	res := out.Result
	resp := &api.MineResponse{
		Algorithm:         cfg.Algorithm.String(),
		Dataset:           digest,
		Transactions:      res.NumTransactions,
		MinSupportCount:   res.MinSupportCount,
		PrunedDeps:        res.PrunedDeps,
		PrunedSameFeature: res.PrunedSameFeature,
		MiningMicros:      res.Duration.Microseconds(),
		Frequent:          make([]api.ItemsetResult, 0, len(res.Frequent)),
		Rules:             ruleResults(out),
	}
	for _, f := range res.Frequent {
		resp.Frequent = append(resp.Frequent, api.ItemsetResult{Items: f.Items.Names(out.DB.Dict), Support: f.Support})
	}
	return resp
}

func ruleResults(out *core.Outcome) []api.RuleResult {
	var rules []api.RuleResult
	for _, r := range out.Rules {
		rules = append(rules, api.RuleResult{
			Antecedent: r.Antecedent.Names(out.DB.Dict),
			Consequent: r.Consequent.Names(out.DB.Dict),
			Support:    r.Support,
			Confidence: r.Confidence,
			Lift:       r.Lift,
		})
	}
	return rules
}

// colocResponse is the /v1/colocate response a server must return for a
// reference co-location result.
func colocResponse(digest string, res *colocation.Result) *api.MineResponse {
	cr := &api.ColocationResult{
		Distance:       res.Distance,
		MinPI:          res.MinPI,
		Types:          res.Types,
		Instances:      res.Instances,
		CandidatePairs: res.CandidatePairs,
		RefinedPairs:   res.RefinedPairs,
		Prevalent:      make([]api.ColocationPattern, 0, len(res.Prevalent)),
	}
	for _, p := range res.Prevalent {
		cr.Prevalent = append(cr.Prevalent, api.ColocationPattern{Types: p.Types, ParticipationIndex: p.PI, RowInstances: p.Rows})
	}
	return &api.MineResponse{
		Algorithm:    "colocation",
		Dataset:      digest,
		MiningMicros: res.Duration.Microseconds(),
		Frequent:     []api.ItemsetResult{},
		Colocation:   cr,
	}
}

// responseDigest fingerprints a mining response for comparison, ignoring
// the fields that legitimately vary between equal results: the mining
// time and whether the result came from the cache.
func responseDigest(r *api.MineResponse) ([32]byte, error) {
	c := *r
	c.MiningMicros = 0
	c.Cached = false
	b, err := json.Marshal(&c)
	if err != nil {
		return [32]byte{}, fmt.Errorf("encoding response: %w", err)
	}
	return sha256.Sum256(b), nil
}

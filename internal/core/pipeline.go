// Package core assembles the paper's complete system: the spatial pattern
// mining pipeline that takes a geographic dataset, extracts qualitative
// spatial predicates into a transaction table, mines frequent patterns
// with the configured algorithm (Apriori, Apriori-KC, or the paper's
// Apriori-KC+), and derives association rules.
//
// It is the integration layer over the substrate packages (geom, de9im,
// qsr, index, dataset, transact, itemset, mining) and the implementation
// behind the public qsrmine API.
package core

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/transact"
)

// Algorithm selects the mining variant.
type Algorithm int

// The three algorithms the paper evaluates.
const (
	// AlgApriori is the classic baseline: no filtering.
	AlgApriori Algorithm = iota
	// AlgAprioriKC removes the background-knowledge dependency pairs Φ
	// from C2.
	AlgAprioriKC
	// AlgAprioriKCPlus additionally removes every candidate pair whose
	// predicates share a feature type — the paper's contribution.
	AlgAprioriKCPlus
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgApriori:
		return "apriori"
	case AlgAprioriKC:
		return "apriori-kc"
	case AlgAprioriKCPlus:
		return "apriori-kc+"
	}
	return fmt.Sprintf("core.Algorithm(%d)", int(a))
}

// ParseAlgorithm inverts Algorithm.String. The names of the retired
// FP-growth and Eclat engines ("fpgrowth-kc+", "fpgrowth", "eclat-kc+",
// "eclat") still parse, as AlgAprioriKCPlus: both mined the Apriori-KC+
// pattern set, so old clients, journaled jobs and scripts keep working.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "apriori":
		return AlgApriori, nil
	case "apriori-kc", "kc":
		return AlgAprioriKC, nil
	case "apriori-kc+", "kc+", "kcplus",
		"fpgrowth-kc+", "fpgrowth", "eclat-kc+", "eclat":
		return AlgAprioriKCPlus, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want apriori, apriori-kc, or apriori-kc+)", s)
}

// Config parameterises a full pipeline run.
type Config struct {
	// Extraction configures the predicate extraction; zero value uses
	// transact.DefaultOptions.
	Extraction transact.Options
	// Algorithm picks the miner.
	Algorithm Algorithm
	// MinSupport is the relative minimum support in (0, 1].
	MinSupport float64
	// Dependencies is the background knowledge Φ (used by KC and KC+).
	Dependencies []mining.Pair
	// Parallelism bounds the vertical support-counting worker pool: 1 or
	// negative is sequential, 0 uses GOMAXPROCS. Results are identical
	// at any setting.
	Parallelism int
	// MinConfidence is the minimum rule confidence in [0, 1], used when
	// GenerateRules is set; values outside that range (or NaN) are
	// rejected either way.
	MinConfidence float64
	// GenerateRules enables the association-rule stage.
	GenerateRules bool
	// PostFilter applies an optional redundancy post-filter.
	PostFilter PostFilter
}

// PostFilter selects the optional redundancy elimination applied after
// mining — the paper's future-work direction.
type PostFilter int

// Post filters.
const (
	// NoPostFilter keeps all frequent itemsets.
	NoPostFilter PostFilter = iota
	// ClosedFilter keeps only closed itemsets.
	ClosedFilter
	// MaximalFilter keeps only maximal itemsets.
	MaximalFilter
)

// Outcome bundles everything a pipeline run produces.
type Outcome struct {
	// Table is the extracted (or supplied) transaction table.
	Table *dataset.Table
	// DB is the interned mining database (exposes the dictionary).
	DB *itemset.DB
	// Result is the mining result with pass statistics.
	Result *mining.Result
	// Rules holds the generated association rules (nil unless enabled).
	Rules []mining.Rule
}

// Run executes the full pipeline on a geographic dataset. It is
// RunContext with a background context, kept for callers that need
// neither cancellation nor tracing.
func Run(d *dataset.Dataset, cfg Config) (*Outcome, error) {
	return RunContext(context.Background(), d, cfg)
}

// RunContext executes the full pipeline on a geographic dataset,
// honouring ctx cancellation/deadlines in every stage and emitting stage
// spans and mining pass events to any obs.Trace attached to ctx (see
// obs.WithTrace).
//
// A zero cfg.Extraction — and only the exact zero value — is replaced by
// transact.DefaultOptions. Any deliberately non-zero Options with all
// relation families off performs attributes-only extraction.
func RunContext(ctx context.Context, d *dataset.Dataset, cfg Config) (*Outcome, error) {
	// Reject a config the mining stages cannot run before paying for
	// extraction.
	if _, err := EffectiveMiningConfig(cfg); err != nil {
		return nil, err
	}
	opts := cfg.Extraction
	if opts.IsZero() {
		opts = transact.DefaultOptions()
	}
	tr := obs.FromContext(ctx)
	sp := tr.Stage("extract")
	table, err := transact.ExtractContext(ctx, d, opts)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: extraction: %w", err)
	}
	return RunTableContext(ctx, table, cfg)
}

// EffectiveMiningConfig resolves the mining.Config that cfg's algorithm
// actually mines with. The named algorithm wrappers override the filter
// flags — plain Apriori ignores both Φ and same-feature filtering,
// Apriori-KC applies only Φ, and Apriori-KC+ forces same-feature
// filtering on — so any code that re-derives or patches a result (the
// delta mining path in particular) must use these effective semantics,
// not the raw request config. It fails on a config no pipeline stage
// can run: an unknown algorithm, a MinSupport outside (0, 1] or a
// MinConfidence outside [0, 1] (NaN fails both range checks).
func EffectiveMiningConfig(cfg Config) (mining.Config, error) {
	if s := cfg.MinSupport; !(s > 0 && s <= 1) {
		return mining.Config{}, fmt.Errorf("core: minSupport must be in (0, 1] (got %v)", s)
	}
	if c := cfg.MinConfidence; !(c >= 0 && c <= 1) {
		return mining.Config{}, fmt.Errorf("core: minConfidence must be in [0, 1] (got %v)", c)
	}
	mcfg := mining.Config{
		MinSupport:   cfg.MinSupport,
		Dependencies: cfg.Dependencies,
		Parallelism:  cfg.Parallelism,
	}
	switch cfg.Algorithm {
	case AlgApriori:
		mcfg.Dependencies = nil
	case AlgAprioriKC:
	case AlgAprioriKCPlus:
		mcfg.FilterSameFeature = true
	default:
		return mining.Config{}, fmt.Errorf("core: unknown algorithm %d", cfg.Algorithm)
	}
	return mcfg, nil
}

// RunTable executes the mining stages on an existing transaction table
// (e.g. one loaded from disk or produced by a generator). It is
// RunTableContext with a background context.
func RunTable(table *dataset.Table, cfg Config) (*Outcome, error) {
	return RunTableContext(context.Background(), table, cfg)
}

// RunTableContext executes the mining stages on an existing transaction
// table, honouring ctx cancellation/deadlines between (and inside)
// mining passes and emitting stage spans and pass events to any
// obs.Trace attached to ctx. A cancelled run returns ctx.Err()
// (context.Canceled or context.DeadlineExceeded), unwrappable with
// errors.Is through the "core: mining:" wrapping.
func RunTableContext(ctx context.Context, table *dataset.Table, cfg Config) (*Outcome, error) {
	tr := obs.FromContext(ctx)
	sp := tr.Stage("intern")
	db := itemset.NewDB(table)
	sp.End()
	mcfg, err := EffectiveMiningConfig(cfg)
	if err != nil {
		return nil, err
	}
	sp = tr.Stage("mine")
	res, err := mining.MineContext(ctx, db, mcfg)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: mining: %w", err)
	}
	sp = tr.Stage("postfilter")
	switch cfg.PostFilter {
	case NoPostFilter:
	case ClosedFilter:
		res.Frequent = mining.ClosedOnly(res.Frequent)
	case MaximalFilter:
		res.Frequent = mining.MaximalOnly(res.Frequent)
	default:
		sp.End()
		return nil, fmt.Errorf("core: unknown post filter %d", cfg.PostFilter)
	}
	sp.End()
	out := &Outcome{Table: table, DB: db, Result: res}
	if cfg.GenerateRules {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp = tr.Stage("rules")
		out.Rules = mining.GenerateRules(res, cfg.MinConfidence)
		sp.End()
	}
	return out, nil
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/colocation"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/server"
	"repro/internal/server/persist"
	"repro/internal/transact"
)

// mixClients is the number of closed-loop clients of server-mix: one per
// processor of the 2-core host the benchmark was sized on.
const mixClients = 2

// mixSlices is how many slices the timed phase is cut into; the
// per-slice CPU time per request shows drift within a run.
const mixSlices = 10

// warmupOps is how many requests server-mix sends before timing: enough
// PATCHes (a fifth of the mix) to fill the 64-entry dataset store and
// enough misses (half of it) to fill the 256-entry result cache.
const warmupOps = 640

// mixCfg is the delta-eligible config (no rules, no post-filter): the
// base scene is mined with it during set-up, every mine_hit repeats that,
// and every successor mine uses it.
var mixCfg = core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: coldMinSupport}

// coldCfg is the k-th mine_cold of a client: a minimum support never
// sent before, with rules.
func coldCfg(client, k int) core.Config {
	return core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: coldSupport(client, k), GenerateRules: true, MinConfidence: 0.7}
}

func colocCfg(client, k int) colocation.Config {
	return colocation.Config{Distance: colocDist(client, k), MinPI: colocMinPI}
}

// mixInputs are server-mix's generated inputs and set-up references.
type mixInputs struct {
	sceneBody, colocBody []byte
	base, coloc          *dataset.Dataset // parsed as the server parses the uploads
	baseDigest, colocDig string
	baseRef              *core.Outcome // mixCfg on the base scene
	hitWant              [32]byte
	colocWant            [32]byte               // colocCfg(-1) on the co-location scene
	rootOps              [mixClients]dataset.Op // each client's chain root
	roots                [mixClients]*dataset.Dataset
	rootWant             [mixClients][32]byte
}

func newMixInputs(e *env) (*mixInputs, error) {
	in := &mixInputs{}
	ds, body, err := genScene(e.seed)
	if err != nil {
		return nil, err
	}
	cds, cbody, err := genColocScene(e.seed)
	if err != nil {
		return nil, err
	}
	if err := checkSeedShape(e, "scene", sceneShape(ds, body), func(seed int64) (shape, error) {
		ds, b, err := genScene(seed)
		if err != nil {
			return shape{}, err
		}
		return sceneShape(ds, b), nil
	}); err != nil {
		return nil, err
	}
	if err := checkSeedShape(e, "colocation scene", sceneShape(cds, cbody), func(seed int64) (shape, error) {
		ds, b, err := genColocScene(seed)
		if err != nil {
			return shape{}, err
		}
		return sceneShape(ds, b), nil
	}); err != nil {
		return nil, err
	}
	in.sceneBody, in.colocBody = body, cbody
	in.baseDigest, in.colocDig = server.Digest(body), server.Digest(cbody)
	if in.base, err = dataset.ReadJSON(bytes.NewReader(body)); err != nil {
		return nil, err
	}
	if in.coloc, err = dataset.ReadJSON(bytes.NewReader(cbody)); err != nil {
		return nil, err
	}
	ctx := context.Background()
	if in.baseRef, err = core.RunContext(ctx, in.base, mixCfg); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if in.hitWant, err = responseDigest(mineResponse(in.baseDigest, mixCfg, in.baseRef)); err != nil {
		return nil, err
	}
	cres, err := colocation.MineContext(ctx, in.coloc, colocCfg(-1, 0))
	if err != nil {
		return nil, fmt.Errorf("reference co-location run: %w", err)
	}
	if in.colocWant, err = responseDigest(colocResponse(in.colocDig, cres)); err != nil {
		return nil, err
	}
	for c := 0; c < mixClients; c++ {
		in.rootOps[c] = newNudger(e.seed, -1-c, in.base).next()
		if in.roots[c], in.rootWant[c], err = in.successor(in.base, in.rootOps[c]); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// coldWant is the digest of the response a cold mine of the base scene
// under cfg must return.
func (in *mixInputs) coldWant(digest string, cfg core.Config) ([32]byte, error) {
	out, err := core.RunTableContext(context.Background(), in.baseRef.Table, cfg)
	if err != nil {
		return [32]byte{}, err
	}
	return responseDigest(mineResponse(digest, cfg, out))
}

// successor applies op to parent and returns the successor scene and
// the digest of the response mining it under mixCfg must return: a
// cold pipeline run on the locally mutated scene.
func (in *mixInputs) successor(parent *dataset.Dataset, op dataset.Op) (*dataset.Dataset, [32]byte, error) {
	nd, _, err := parent.ApplyOps([]dataset.Op{op})
	if err != nil {
		return nil, [32]byte{}, err
	}
	var buf bytes.Buffer
	if err := nd.WriteJSON(&buf); err != nil {
		return nil, [32]byte{}, err
	}
	out, err := core.RunContext(context.Background(), nd, mixCfg)
	if err != nil {
		return nil, [32]byte{}, err
	}
	want, err := responseDigest(mineResponse(server.Digest(buf.Bytes()), mixCfg, out))
	return nd, want, err
}

// mixServer is one in-process qsrmined with persistence into a fresh
// directory, reached over HTTP through the client package.
type mixServer struct {
	base  string // digest of the 40x40 scene
	coloc string // digest of the co-location scene
	dir   string
	pers  *persist.Dir
	timed *timedPersistence // the traced pass's timing decorator, else nil
	srv   *server.Server
	http  *httptest.Server
	cl    *client.Client
	heads [mixClients]string // each client's current chain head
}

// startMix sets the server up: upload both scenes, mine the base scene
// with mixCfg and the co-location scene with one config once, and give
// each client its own patch chain root. Every response is checked.
func startMix(e *env, in *mixInputs, timed bool) (*mixServer, error) {
	m := &mixServer{base: in.baseDigest, coloc: in.colocDig}
	var err error
	if m.dir, err = os.MkdirTemp(e.work, "persist-"); err != nil {
		return nil, err
	}
	if m.pers, err = persist.Open(m.dir); err != nil {
		os.RemoveAll(m.dir)
		return nil, err
	}
	var p server.Persistence = m.pers
	if timed {
		m.timed = &timedPersistence{Dir: m.pers}
		p = m.timed
	}
	m.srv = server.New(server.Options{Persistence: p})
	m.http = httptest.NewServer(m.srv.Handler())
	m.cl = client.New(m.http.URL)
	if err := m.prime(in); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

func (m *mixServer) prime(in *mixInputs) error {
	ctx := context.Background()
	for _, up := range []struct {
		body   []byte
		digest string
	}{{in.sceneBody, in.baseDigest}, {in.colocBody, in.colocDig}} {
		info, err := m.cl.UploadDataset(ctx, api.KindScene, up.body)
		if err != nil {
			return err
		}
		if info.Digest != up.digest {
			return fmt.Errorf("upload digest %s, want %s", info.Digest, up.digest)
		}
	}
	check := func(resp *api.MineResponse, err error, want [32]byte, what string) error {
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		got, err := responseDigest(resp)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("%s: response differs from the reference", what)
		}
		return nil
	}
	resp, err := m.cl.Mine(ctx, api.MineRequest{Dataset: in.baseDigest, Config: mixCfg})
	if err := check(resp, err, in.hitWant, "set-up mine"); err != nil {
		return err
	}
	resp, err = m.cl.Colocate(ctx, api.ColocateRequest{Dataset: in.colocDig, Config: colocCfg(-1, 0)})
	if err := check(resp, err, in.colocWant, "set-up colocate"); err != nil {
		return err
	}
	for c := 0; c < mixClients; c++ {
		pr, err := m.cl.PatchDataset(ctx, in.baseDigest, api.PatchRequest{Ops: []dataset.Op{in.rootOps[c]}})
		if err != nil {
			return fmt.Errorf("set-up patch: %w", err)
		}
		m.heads[c] = pr.Dataset.Digest
		resp, err = m.cl.Mine(ctx, api.MineRequest{Dataset: m.heads[c], Config: mixCfg})
		if err := check(resp, err, in.rootWant[c], "set-up successor mine"); err != nil {
			return err
		}
	}
	return nil
}

// close stops the server and removes its data directory.
func (m *mixServer) close() {
	if m.http != nil {
		m.http.Close()
	}
	if m.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		m.srv.Shutdown(ctx)
		cancel()
	}
	m.pers.Close()
	os.RemoveAll(m.dir)
}

// opRecord is one timed server-mix op, kept for verification after the
// timed phase.
type opRecord struct {
	kind   opKind
	k      int        // per-client index of the op among its kind
	op     dataset.Op // patch_mine: the mutation sent
	child  string     // patch_mine: successor digest the server returned
	digest [32]byte   // response fingerprint
	lat    time.Duration
	warmup bool  // sent before the timed phase
	err    error // the op failed; a failed patch_mine may still have moved the chain
}

// mixClient is one closed-loop client's state and results.
type mixClient struct {
	id      int
	seq     *opSequence
	pending []opKind // rest of the current round
	nudge   *nudger
	counts  [numKinds]int
	records []opRecord
}

func newMixClients(e *env, in *mixInputs) []*mixClient {
	clients := make([]*mixClient, mixClients)
	for c := range clients {
		clients[c] = &mixClient{id: c, seq: newOpSequence(e.seed, c), nudge: newNudger(e.seed, c, in.base)}
	}
	return clients
}

// phase runs the clients in a closed loop for d and returns the number
// of ops they sent. No client starts an op after the deadline; a later
// phase continues each client's sequence where this one stopped.
func (m *mixServer) phase(clients []*mixClient, in *mixInputs, d time.Duration) int {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	before := m.sent(clients)
	for _, mc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.loop(mc, in, deadline)
		}()
	}
	wg.Wait()
	return m.sent(clients) - before
}

// sent is the number of ops the clients have sent so far.
func (m *mixServer) sent(clients []*mixClient) int {
	n := 0
	for _, mc := range clients {
		n += len(mc.records)
	}
	return n
}

func (m *mixServer) loop(mc *mixClient, in *mixInputs, deadline time.Time) {
	ctx := context.Background()
	for time.Now().Before(deadline) {
		if len(mc.pending) == 0 {
			mc.pending = mc.seq.nextRound()
		}
		kind := mc.pending[0]
		mc.pending = mc.pending[1:]
		rec := opRecord{kind: kind, k: mc.counts[kind]}
		mc.counts[kind]++
		t0 := time.Now()
		resp, err := m.do(ctx, mc, &rec)
		rec.lat = time.Since(t0)
		if err == nil {
			rec.digest, err = responseDigest(resp)
		}
		if err == nil && kind == opMineHit && rec.digest != in.hitWant {
			err = errors.New("mine_hit response differs from the reference")
		}
		if err != nil {
			rec.err = fmt.Errorf("%s #%d: %w", kind, rec.k, err)
		}
		mc.records = append(mc.records, rec)
	}
}

// do sends one op's requests.
func (m *mixServer) do(ctx context.Context, mc *mixClient, rec *opRecord) (*api.MineResponse, error) {
	switch rec.kind {
	case opMineHit:
		return m.cl.Mine(ctx, api.MineRequest{Dataset: m.base, Config: mixCfg})
	case opMineCold:
		return m.cl.Mine(ctx, api.MineRequest{Dataset: m.base, Config: coldCfg(mc.id, rec.k)})
	case opPatchMine:
		rec.op = mc.nudge.next()
		pr, err := m.cl.PatchDataset(ctx, m.heads[mc.id], api.PatchRequest{Ops: []dataset.Op{rec.op}})
		if err != nil {
			return nil, err
		}
		rec.child = pr.Dataset.Digest
		m.heads[mc.id] = rec.child
		return m.cl.Mine(ctx, api.MineRequest{Dataset: rec.child, Config: mixCfg})
	default:
		return m.cl.Colocate(ctx, api.ColocateRequest{Dataset: m.coloc, Config: colocCfg(mc.id, rec.k)})
	}
}

// runServerMix is the server-mix workload: two closed-loop clients send
// a seeded mix of cache hits, cold mines, PATCH-then-mine successor
// chains and co-location requests to an in-process qsrmined.
func runServerMix(e *env) (*outcome, error) {
	in, err := newMixInputs(e)
	if err != nil {
		return nil, err
	}
	e.logf("input scene %d bytes (%d rows), colocation scene %d bytes (%d instances)",
		len(in.sceneBody), in.base.Reference.Len(), len(in.colocBody), countFeatures(in.coloc))
	var m *mixServer
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if m != nil {
			m.close()
		}
		d, err := unstolenCPU(func() error {
			var err error
			m, err = startMix(e, in, e.trace)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer func() {
		if m != nil {
			m.close()
		}
	}()
	e.logf("setup_s samples (CPU seconds less stolen share) %v", setups)
	if e.trace {
		return tracedServerMix(e, in, m)
	}

	clients := newMixClients(e, in)
	// Warm up: run the mix until the dataset store and the result cache
	// are full and evicting, so the timed phase measures the steady state
	// whatever the host's speed. Warm-up responses are verified too, except
	// that successor mines skip the costly cold reference run.
	for m.sent(clients) < warmupOps {
		m.phase(clients, in, 500*time.Millisecond)
	}
	for _, mc := range clients {
		for i := range mc.records {
			mc.records[i].warmup = true
		}
	}
	e.logf("warm-up %d requests", m.sent(clients))
	var perOp []float64
	var cpuTotal, rawTotal time.Duration
	var opsTotal int
	before, err := m.cl.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	rss := startRSSSampler(20 * time.Millisecond)
	steal := startSteal()
	var elapsed time.Duration
	for i := 0; i < mixSlices; i++ {
		var n int
		var raw time.Duration
		start := time.Now()
		cpu, _ := unstolenCPU(func() error {
			raw, _ = cpuSpan(func() error { n = m.phase(clients, in, e.seconds/mixSlices); return nil })
			return nil
		})
		elapsed += time.Since(start)
		perOp = append(perOp, ratio(ms(cpu), float64(n)))
		cpuTotal += cpu
		rawTotal += raw
		opsTotal += n
	}
	peak := rss.Stop()
	stolen := steal.share()
	after, err := m.cl.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	m.close()
	m = nil
	d := diffCounters(before, after)
	e.logf("server counters: mine.runs %d colocate.runs %d state.reused %d mine.patched %d coalesce.hits %d extract %.0f ms cache.evictions %d store.evictions %d",
		d["server.mine.runs"], d["server.colocate.runs"], d["delta.state.reused"], d["delta.mine.patched"], d["coalesce.hits"],
		float64(d["stage.extract.nanos"])/1e6, d["cache.evictions"], d["store.evictions"])
	e.logf("slices cpu_ms_per_request (less stolen share) %.2f", perOp)

	attempted, failed, kinds := verifyMix(e, in, clients)
	e.logf("host CPU stolen %.1f%% during the timed phase; CPU per request %.3f ms before removing the stolen share",
		100*stolen, ratio(ms(rawTotal), float64(opsTotal)))
	reportKinds(e, kinds, elapsed)
	// Unlike the CLI workloads, server-mix does not scale by the
	// calibration loop, which runs on one thread while the server keeps
	// both processors busy: scaling by it made the run-to-run spread wider.
	// Its CPU time rose with the share of the machine the hypervisor stole
	// during the phase instead, so that share is taken out per slice.
	return &outcome{
		attempted: attempted,
		failed:    failed,
		metrics: map[string]float64{
			"cpu_ms_per_op": ratio(ms(cpuTotal), float64(opsTotal)),
			"peak_rss_mb":   peak,
			"setup_s":       median(setups),
		},
	}, nil
}

func countFeatures(ds *dataset.Dataset) int {
	n := ds.Reference.Len()
	for _, l := range ds.Relevant {
		n += l.Len()
	}
	return n
}

// verifyMix checks every recorded response against an in-process
// reference, after the timed phase: mine_cold against a cold mine of the
// base scene's table, patch_mine against a cold pipeline run on the
// locally mutated scene, colocate against colocation.MineContext
// (mine_hit was compared during the phase). Clients are verified
// concurrently. It returns the ops attempted and failed, and the
// latencies of the verified ops by kind.
func verifyMix(e *env, in *mixInputs, clients []*mixClient) (attempted, failed int, kinds [numKinds][]float64) {
	var wg sync.WaitGroup
	for _, mc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.verifyClient(mc)
		}()
	}
	wg.Wait()
	for _, mc := range clients {
		for _, r := range mc.records {
			attempted++
			if r.err != nil {
				failed++
				if failed <= 5 {
					e.logf("op failed: client %d %v", mc.id, r.err)
				}
				continue
			}
			if !r.warmup {
				kinds[r.kind] = append(kinds[r.kind], ms(r.lat))
			}
		}
	}
	return attempted, failed, kinds
}

// verifyClient sets err on every record of mc whose response differs
// from the reference.
func (in *mixInputs) verifyClient(mc *mixClient) {
	chain := in.roots[mc.id]
	for i := range mc.records {
		r := &mc.records[i]
		var want [32]byte
		var err error
		switch r.kind {
		case opMineHit:
			continue // compared when it arrived
		case opMineCold:
			want, err = in.coldWant(in.baseDigest, coldCfg(mc.id, r.k))
		case opPatchMine:
			if r.child == "" {
				continue // the PATCH itself failed: the chain did not move
			}
			if r.warmup {
				// Advance the local chain without the cold reference
				// run, the costliest check, for ops that are not timed.
				chain, _, err = chain.ApplyOps([]dataset.Op{r.op})
				if err != nil {
					r.err = fmt.Errorf("%s #%d: reference: %w", r.kind, r.k, err)
				}
				continue
			}
			chain, want, err = in.successor(chain, r.op)
		case opColocate:
			var res *colocation.Result
			if res, err = colocation.MineContext(context.Background(), in.coloc, colocCfg(mc.id, r.k)); err == nil {
				want, err = responseDigest(colocResponse(in.colocDig, res))
			}
		}
		switch {
		case r.err != nil:
		case err != nil:
			r.err = fmt.Errorf("%s #%d: reference: %w", r.kind, r.k, err)
		case r.digest != want:
			r.err = fmt.Errorf("%s #%d: response differs from the reference", r.kind, r.k)
		}
	}
}

// reportKinds prints the per-kind latency distribution of the timed
// ops and their rate.
func reportKinds(e *env, kinds [numKinds][]float64, elapsed time.Duration) {
	n := 0
	for k, lats := range kinds {
		n += len(lats)
		e.logf("report %s_p50_ms %.3f ms, %s_p90_ms %.3f ms (wall, n=%d)",
			opKind(k), percentile(lats, 50), opKind(k), percentile(lats, 90), len(lats))
	}
	e.logf("report requests_per_s %.2f ops/s (%d verified ops in %.2f s, %d clients)",
		float64(n)/elapsed.Seconds(), n, elapsed.Seconds(), mixClients)
}

// tracedServerMix is server-mix's traced pass. Its first half is the
// same closed loop over HTTP, with persistence saves timed by the
// decorator and the server's counters differenced from /v1/metrics; its
// second half replays client 0's op sequence through the layer functions
// on one core.
func tracedServerMix(e *env, in *mixInputs, m *mixServer) (*outcome, error) {
	ctx := context.Background()
	before, err := m.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	bytes0 := dirBytes(m.dir)
	start := time.Now()
	clients := newMixClients(e, in)
	cpu, _ := cpuSpan(func() error { m.phase(clients, in, e.seconds/2); return nil })
	elapsed := time.Since(start)
	after, err := m.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	sv := m.timed.snapshot()
	persisted := dirBytes(m.dir) - bytes0
	attempted, failed, kinds := verifyMix(e, in, clients)
	reportKinds(e, kinds, elapsed)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t, n, err := replayMix(e, in, time.Now().Add(e.seconds/2))
	if err != nil {
		return nil, err
	}
	// The untraced comparison is the HTTP phase's CPU time per request.
	untraced := ratio(ms(cpu), float64(attempted))
	out := t.metrics(untraced)
	patchMines := len(kinds[opPatchMine])
	for name, v := range serverMetrics(diffCounters(before, after), patchMines) {
		out[name] = v
	}
	out["persist.save_dataset_ms"] = ratio(ms(sv.datasetTime), float64(sv.datasets))
	out["persist.save_result_ms"] = ratio(ms(sv.resultTime), float64(sv.results))
	out["persist.saves"] = float64(sv.datasets + sv.results)
	out["persist.bytes"] = float64(persisted)
	e.logf("traced ops %d (by kind %v)", t.ops, n)
	logLayerSplit(e, out)
	return &outcome{attempted: attempted + t.ops, failed: failed, metrics: out}, nil
}

// replayMix replays client 0's op sequence through the layer functions
// until deadline and returns the tracer and the replayed ops by kind.
// mine_hit is the encoding of the cached response; mine_cold mines the
// base table; patch_mine applies the nudge, serialises the successor,
// patches a private extraction state and advances the delta-mined
// result; colocate runs the co-location engine.
func replayMix(e *env, in *mixInputs, deadline time.Time) (*tracer, [numKinds]int, error) {
	var n [numKinds]int
	t := newTracer()
	opts := transact.DefaultOptions()
	opts.Parallelism = 1
	mcfg, err := core.EffectiveMiningConfig(mixCfg)
	if err != nil {
		return nil, n, err
	}
	chain := in.roots[0]
	st, err := transact.NewStateContext(context.Background(), chain, opts)
	if err != nil {
		return nil, n, err
	}
	db := itemset.NewDB(st.Table())
	res, err := mining.MineContext(context.Background(), db, mcfg)
	if err != nil {
		return nil, n, err
	}
	hit := mineResponse(in.baseDigest, mixCfg, in.baseRef)
	seq := newOpSequence(e.seed, 0)
	nudge := newNudger(e.seed, 0, in.base)
	for time.Now().Before(deadline) {
		for _, kind := range seq.nextRound() {
			if !time.Now().Before(deadline) {
				break
			}
			k := n[kind]
			n[kind]++
			switch kind {
			case opMineHit:
				err = t.op(func() error { return t.encodeResponse(func() *api.MineResponse { return hit }) })
			case opMineCold:
				cfg := coldCfg(0, k)
				cfg.Parallelism = 1
				err = t.op(func() error { _, err := t.mineTable(in.baseRef.Table, cfg, in.baseDigest); return err })
			case opPatchMine:
				err = t.op(func() error {
					var err error
					chain, db, res, err = t.patchMine(chain, st, db, res, mcfg, nudge.next())
					return err
				})
			case opColocate:
				err = t.op(func() error { return t.colocate(in, colocCfg(0, k)) })
			}
			if err != nil {
				return nil, n, fmt.Errorf("replaying %s: %w", kind, err)
			}
		}
	}
	t.countMining()
	return t, n, nil
}

// patchMine replays one patch_mine: the server's PATCH (apply the op,
// serialise the successor) and its delta mine (patch the extraction
// state, then patch the parent's mining result forward row by row).
func (t *tracer) patchMine(parent *dataset.Dataset, st *transact.State, db *itemset.DB, res *mining.Result, mcfg mining.Config, op dataset.Op) (*dataset.Dataset, *itemset.DB, *mining.Result, error) {
	var nd *dataset.Dataset
	var cs *dataset.ChangeSet
	if err := t.layer("dataset.apply_ops_ms", func() error {
		var err error
		nd, cs, err = parent.ApplyOps([]dataset.Op{op})
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	var buf bytes.Buffer
	if err := t.layer("dataset.write_scene_ms", func() error { return nd.WriteJSON(&buf) }); err != nil {
		return nil, nil, nil, err
	}
	var td *transact.TableDelta
	if err := t.layer("transact.state_apply_ms", func() error {
		var err error
		td, err = st.Apply(t.ctx, nd, cs)
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	t.counts["transact.rows_dirty"] += float64(td.RowsDirty)
	if err := t.layer("mining.mine_ms", func() error {
		deltas := make([]mining.RowDelta, 0, len(td.Changed)+len(td.Deleted))
		edits := make([]itemset.RowEdit, 0, len(td.Changed))
		for _, c := range td.Changed {
			ids := make([]int32, len(c.New))
			for i, name := range c.New {
				ids[i] = db.Dict.Intern(name)
			}
			d := mining.RowDelta{New: itemset.NewItemset(ids...)}
			if old := td.NewFromOld[c.Row]; old >= 0 {
				d.Old = db.Rows[old]
			}
			deltas = append(deltas, d)
			edits = append(edits, itemset.RowEdit{Row: c.Row, Items: c.New})
		}
		for _, del := range td.Deleted {
			deltas = append(deltas, mining.RowDelta{Old: db.Rows[del.Row]})
		}
		db.ApplyDelta(td.NewFromOld, edits)
		var err error
		res, _, err = mining.PatchResultContext(t.ctx, db, res, mcfg, deltas)
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	out := &core.Outcome{Table: st.Table(), DB: db, Result: res}
	return nd, db, res, t.encodeResponse(func() *api.MineResponse { return mineResponse(server.Digest(buf.Bytes()), mixCfg, out) })
}

// colocate replays one colocate request: the co-location engine, whose
// own stage spans split its time into neighbour-graph and walk, then the
// response encoding. The spans measure wall time, so each stage gets the
// share of the call's CPU time that its span has of the call's wall time.
func (t *tracer) colocate(in *mixInputs, cfg colocation.Config) error {
	cfg.Parallelism = 1
	neighbors0, walk0 := t.stage("colocate.neighbors"), t.stage("colocate.walk")
	var res *colocation.Result
	start := time.Now()
	cpu, err := cpuSpan(func() error {
		var err error
		res, err = colocation.MineContext(t.ctx, in.coloc, cfg)
		return err
	})
	if err != nil {
		return err
	}
	wall := float64(time.Since(start))
	share := func(d time.Duration) time.Duration { return time.Duration(float64(cpu) * ratio(float64(d), wall)) }
	neighbors := share(t.stage("colocate.neighbors") - neighbors0)
	walk := share(t.stage("colocate.walk") - walk0)
	t.self["colocation.neighbors_ms"] += neighbors
	t.self["colocation.walk_ms"] += walk
	t.self["colocation.mine_ms"] += cpu - neighbors - walk
	t.counts["colocation.pairs_refined"] += float64(res.RefinedPairs)
	t.counts["colocation.star_pruned"] += float64(res.StarPruned)
	return t.encodeResponse(func() *api.MineResponse { return colocResponse(in.colocDig, res) })
}

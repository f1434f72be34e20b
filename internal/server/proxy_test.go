package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/core"
	"repro/internal/dataset"
)

// cluster is a 3-node test fixture: three real mining servers behind
// one front.
type cluster struct {
	nodes   []*Server
	nodeTS  []*httptest.Server
	front   *Proxy
	frontTS *httptest.Server
}

func newCluster(t *testing.T, replicas int) *cluster {
	t.Helper()
	c := &cluster{}
	peers := make([]string, 3)
	for i := 0; i < 3; i++ {
		s := New(Options{Workers: 2})
		ts := httptest.NewServer(s.Handler())
		c.nodes = append(c.nodes, s)
		c.nodeTS = append(c.nodeTS, ts)
		peers[i] = ts.URL
		t.Cleanup(ts.Close)
		t.Cleanup(func() { s.Shutdown(context.Background()) })
	}
	front, err := NewProxy(ProxyOptions{Peers: peers, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	c.front = front
	c.frontTS = httptest.NewServer(front.Handler())
	t.Cleanup(c.frontTS.Close)
	return c
}

func sampleSceneJSON(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.PortoAlegreScene().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// normalizeMicros zeroes the wall-clock field, the one part of a mining
// response that legitimately differs between two executions.
func normalizeMicros(r *api.MineResponse) *api.MineResponse {
	cp := *r
	cp.MiningMicros = 0
	return &cp
}

// TestProxyFrontMatchesDirect is the multi-node acceptance test: the
// same upload + mine through the front yields a response identical to a
// direct single-node run (modulo wall-clock timing), and the upload is
// replicated to R peers.
func TestProxyFrontMatchesDirect(t *testing.T) {
	c := newCluster(t, 2)
	ctx := context.Background()
	frontC := client.New(c.frontTS.URL)
	scene := sampleSceneJSON(t)

	// Direct reference run against a standalone node.
	direct := New(Options{})
	directTS := httptest.NewServer(direct.Handler())
	defer directTS.Close()
	defer direct.Shutdown(ctx)
	directC := client.New(directTS.URL)

	info, err := frontC.UploadDataset(ctx, api.KindScene, scene)
	if err != nil {
		t.Fatalf("upload via front: %v", err)
	}
	wantInfo, err := directC.UploadDataset(ctx, api.KindScene, scene)
	if err != nil {
		t.Fatal(err)
	}
	if info != wantInfo {
		t.Fatalf("front upload document %+v differs from direct %+v", info, wantInfo)
	}

	// The upload landed on exactly the digest's first R ring candidates.
	cands := c.front.ring.candidates(info.Digest)
	holders := 0
	for i, ts := range c.nodeTS {
		_, has := c.nodes[i].store.Get(info.Digest)
		isReplica := ts.URL == cands[0] || ts.URL == cands[1]
		if has != isReplica {
			t.Errorf("peer %s holds dataset = %v, want %v (candidates %v)", ts.URL, has, isReplica, cands)
		}
		if has {
			holders++
		}
	}
	if holders != 2 {
		t.Errorf("dataset on %d peers, want 2 replicas", holders)
	}

	req := api.MineRequest{Dataset: info.Digest, Config: core.Config{
		Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.3, GenerateRules: true, MinConfidence: 0.7,
	}}
	got, err := frontC.Mine(ctx, req)
	if err != nil {
		t.Fatalf("mine via front: %v", err)
	}
	want, err := directC.Mine(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(normalizeMicros(got))
	wb, _ := json.Marshal(normalizeMicros(want))
	if !bytes.Equal(gb, wb) {
		t.Errorf("front response differs from direct:\n%s\nvs\n%s", gb, wb)
	}

	// GET dataset metadata routes too.
	back, err := frontC.GetDataset(ctx, info.Digest)
	if err != nil || back != info {
		t.Errorf("GetDataset via front = %+v, %v", back, err)
	}

	// The front's health and metrics identify it as a router.
	h, err := frontC.Health(ctx)
	if err != nil || h.Role != "front" || h.Peers != 3 {
		t.Errorf("front health = %+v, %v", h, err)
	}
	m, err := frontC.Metrics(ctx)
	if err != nil || m.Ring == nil {
		t.Fatalf("front metrics = %+v, %v", m, err)
	}
	if m.Ring.Replicas != 2 || len(m.Ring.Peers) != 3 || m.Ring.Forwarded == 0 {
		t.Errorf("ring stats = %+v", m.Ring)
	}
}

// TestProxyJobLifecycle: async jobs submitted through the front are
// routed back to their owning node for polling and cancellation.
func TestProxyJobLifecycle(t *testing.T) {
	c := newCluster(t, 2)
	ctx := context.Background()
	frontC := client.New(c.frontTS.URL)

	info, err := frontC.UploadDataset(ctx, api.KindTable, []byte("r1,a,b\nr2,a,b\nr3,a,c\n"))
	if err != nil {
		t.Fatal(err)
	}
	req := api.MineRequest{Dataset: info.Digest, Config: core.Config{MinSupport: 0.5}}
	st, err := frontC.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("submit via front: %v", err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	final, err := frontC.WaitJob(waitCtx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait via front: %v", err)
	}
	if final.State != api.JobDone || final.Result == nil {
		t.Fatalf("job ended %q (%s), want done with result", final.State, final.Error)
	}
	if final.Result.Transactions != 3 {
		t.Errorf("result transactions = %d, want 3", final.Result.Transactions)
	}
	// The front tracked the routing.
	if m := c.front.Metrics(); m.Ring.TrackedJobs != 1 {
		t.Errorf("tracked jobs = %d, want 1", m.Ring.TrackedJobs)
	}
	// Unknown job IDs 404 with the envelope, not a routing panic.
	if _, err := frontC.PollJob(ctx, "j999999-00000001"); !client.IsNotFound(err) {
		t.Errorf("unknown job poll err = %v, want not_found", err)
	}
}

// TestProxyFailover kills the primary replica of a dataset mid-test and
// requires the front to fail over to the surviving replica: same
// results, Failovers counted, no client-visible error.
func TestProxyFailover(t *testing.T) {
	c := newCluster(t, 2)
	ctx := context.Background()
	frontC := client.New(c.frontTS.URL)

	info, err := frontC.UploadDataset(ctx, api.KindTable, []byte("r1,a,b\nr2,a,b\nr3,b,c\n"))
	if err != nil {
		t.Fatal(err)
	}
	req := api.MineRequest{Dataset: info.Digest, Config: core.Config{MinSupport: 0.5}}
	before, err := frontC.Mine(ctx, req)
	if err != nil {
		t.Fatalf("mine before failover: %v", err)
	}

	// Kill the digest's primary peer.
	cands := c.front.ring.candidates(info.Digest)
	for i, ts := range c.nodeTS {
		if ts.URL == cands[0] {
			ts.Close()
			c.nodes[i].Shutdown(ctx)
		}
	}

	after, err := frontC.Mine(ctx, req)
	if err != nil {
		t.Fatalf("mine after killing the primary: %v", err)
	}
	gb, _ := json.Marshal(normalizeMicros(after))
	wb, _ := json.Marshal(normalizeMicros(before))
	// The surviving replica mined independently; only the timing (and
	// its own cache state) may differ.
	afterN, beforeN := *normalizeMicros(after), *normalizeMicros(before)
	afterN.Cached, beforeN.Cached = false, false
	gb, _ = json.Marshal(afterN)
	wb, _ = json.Marshal(beforeN)
	if !bytes.Equal(gb, wb) {
		t.Errorf("failover response differs:\n%s\nvs\n%s", gb, wb)
	}
	m := c.front.Metrics()
	if m.Ring.Failovers == 0 {
		t.Error("failover not counted in ring stats")
	}
	if m.Ring.Errors != 0 {
		t.Errorf("ring errors = %d, want 0 (a replica survived)", m.Ring.Errors)
	}

	// With BOTH replicas dead the client gets a typed 502.
	for i, ts := range c.nodeTS {
		if ts.URL == cands[1] {
			ts.Close()
			c.nodes[i].Shutdown(ctx)
		}
	}
	// The third node never stored the dataset: expect upstream or
	// not_found depending on ring order — but never a transport error.
	_, err = frontC.Mine(ctx, req)
	if err == nil {
		t.Fatal("mine with both replicas dead succeeded")
	}
	if code := client.ErrCode(err); code != api.CodeUpstream && code != api.CodeNotFound {
		t.Errorf("err = %v (code %q), want upstream_unavailable or not_found", err, code)
	}
}

// TestProxyDraining: a draining front rejects new work with the
// envelope 503 + Retry-After while its peers stay untouched.
func TestProxyDraining(t *testing.T) {
	c := newCluster(t, 2)
	ctx := context.Background()
	if err := c.front.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	frontC := client.New(c.frontTS.URL)
	_, err := frontC.UploadDataset(ctx, api.KindTable, []byte("r1,a,b\n"))
	if client.ErrCode(err) != api.CodeDraining {
		t.Fatalf("upload on draining front err = %v, want draining", err)
	}
	var ae *client.APIError
	if !asAPIErr(err, &ae) || ae.RetryAfter == 0 {
		t.Errorf("draining 503 missing Retry-After (err %v)", err)
	}
	h, err := frontC.Health(ctx)
	if err != nil || h.Status != "draining" {
		t.Errorf("draining front health = %+v, %v", h, err)
	}
	// Peers still answer directly.
	if _, err := client.New(c.nodeTS[0].URL).Health(ctx); err != nil {
		t.Errorf("peer unhealthy after front drain: %v", err)
	}
}

func asAPIErr(err error, target **client.APIError) bool {
	ae, ok := err.(*client.APIError)
	if ok {
		*target = ae
	}
	return ok
}

// TestProxyPatchLineageRouting pins the delta pipeline across the ring
// with Replicas 1: the parent scene lives on exactly one node, the
// successor digest hashes to a (likely different) ring position, and
// lineage routing must still send the successor's mine to the node
// holding the parent — where it runs incrementally, proven by that
// node's delta counters.
func TestProxyPatchLineageRouting(t *testing.T) {
	cl := newCluster(t, 1)
	c := client.New(cl.frontTS.URL)
	ctx := context.Background()

	info, err := c.UploadDataset(ctx, api.KindScene, sampleSceneJSON(t))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	cfg := core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.3}
	if _, err := c.Mine(ctx, api.MineRequest{Dataset: info.Digest, Config: cfg}); err != nil {
		t.Fatalf("mine parent: %v", err)
	}

	digest := info.Digest
	for step := 0; step < 2; step++ {
		pr, err := c.PatchDataset(ctx, digest, api.PatchRequest{Ops: []dataset.Op{
			{Action: dataset.OpInsert, Layer: "slum", ID: "slumP" + string(rune('a'+step)), WKT: "POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))"},
		}})
		if err != nil {
			t.Fatalf("patch step %d: %v", step, err)
		}
		resp, err := c.Mine(ctx, api.MineRequest{Dataset: pr.Dataset.Digest, Config: cfg})
		if err != nil {
			t.Fatalf("mine successor step %d: %v", step, err)
		}
		if resp.Transactions == 0 {
			t.Fatalf("step %d: empty response %+v", step, resp)
		}
		digest = pr.Dataset.Digest
	}

	// Exactly one node owns the whole chain and patched both mines.
	var patched, holders int64
	for _, n := range cl.nodes {
		cs := n.Metrics().Obs.Counters
		patched += cs["delta.mine.patched"]
		if cs["server.datasets.patches"] > 0 {
			holders++
		}
	}
	if patched != 2 {
		t.Errorf("delta.mine.patched across cluster = %d, want 2", patched)
	}
	if holders != 1 {
		t.Errorf("%d nodes served patches, want exactly 1 (replicas=1)", holders)
	}

	// Cluster-wide delete of the root removes the parent; the successors
	// live on the same node and remain mineable from scratch.
	if _, err := c.DeleteDataset(ctx, info.Digest); err != nil {
		t.Fatalf("delete root: %v", err)
	}
	if _, err := c.Mine(ctx, api.MineRequest{Dataset: digest, Config: cfg}); err != nil {
		t.Fatalf("mine orphaned successor: %v", err)
	}
}

// TestProxyPatchShortDigestNoPanic pins the annotation guard in
// handlePatchDataset: a misbehaving peer answering 201 with a truncated
// successor digest must be relayed, recorded, and not panic the handler.
func TestProxyPatchShortDigestNoPanic(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		io.WriteString(w, `{"parent":"p","dataset":{"digest":"short"}}`)
	}))
	defer peer.Close()
	front, err := NewProxy(ProxyOptions{Peers: []string{peer.URL}, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/datasets/deadbeef", bytes.NewReader([]byte(`{"ops":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PATCH: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d, want 201", resp.StatusCode)
	}
	front.mu.Lock()
	_, ok := front.childOf.get("short")
	front.mu.Unlock()
	if !ok {
		t.Error("successor lineage not recorded")
	}
}

// TestProxyRoutingStateBounded pins that the front's job and lineage
// routing state is LRU-capped instead of growing without bound.
func TestProxyRoutingStateBounded(t *testing.T) {
	front, err := NewProxy(ProxyOptions{Peers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	front.mu.Lock()
	for i := 0; i < proxyJobEntries+100; i++ {
		front.jobPeer.put(fmt.Sprintf("j-%d", i), "peer", 0)
	}
	for i := 0; i < proxyLineageEntries+100; i++ {
		front.childOf.put(fmt.Sprintf("d-%d", i), "parent", 0)
	}
	jobs, lineage := front.jobPeer.len(), front.childOf.len()
	front.mu.Unlock()
	if jobs != proxyJobEntries {
		t.Errorf("jobPeer entries = %d, want cap %d", jobs, proxyJobEntries)
	}
	if lineage != proxyLineageEntries {
		t.Errorf("childOf entries = %d, want cap %d", lineage, proxyLineageEntries)
	}
}

package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server/persist"
	"repro/internal/transact"
)

// --- Satellite: eviction must invalidate derived state -------------------

// TestStoreEvictionInvalidatesDerivedState pins the eviction-invalidation
// fix: a dataset the store's LRU pushes out under capacity pressure must
// take its cached mining results and delta-pipeline artefacts with it,
// counted under server.cache.invalidated — exactly like an explicit
// DELETE. Before the fix, evicted digests silently pinned stale results.
func TestStoreEvictionInvalidatesDerivedState(t *testing.T) {
	s := New(Options{StoreMaxEntries: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	var a datasetInfo
	if status, raw := doJSON(t, client, "POST", ts.URL+"/datasets/table", []byte("r1,a,b\nr2,a,c\n"), &a); status != http.StatusCreated {
		t.Fatalf("upload A: %d %s", status, raw)
	}
	cfg := core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.5}
	var first MineResponse
	if status, raw := doJSON(t, client, "POST", ts.URL+"/mine", mineBody(t, a.Digest, cfg), &first); status != http.StatusOK {
		t.Fatalf("mine A: %d %s", status, raw)
	}
	// Seed delta-pipeline state derived from A.
	s.deltas.recordLineage(a.Digest, "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", nil)
	s.deltas.putState(a.Digest+"|opts", nil)
	key, err := CacheKey(a.Digest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cache.Get(key); !ok {
		t.Fatal("mine did not populate the result cache")
	}

	// Upload B: the 1-entry store evicts A.
	var b datasetInfo
	if status, raw := doJSON(t, client, "POST", ts.URL+"/datasets/table", []byte("r9,x,y\n"), &b); status != http.StatusCreated {
		t.Fatalf("upload B: %d %s", status, raw)
	}
	if st := s.store.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("store stats = %+v, want 1 entry / 1 eviction", st)
	}
	if _, ok := s.cache.Get(key); ok {
		t.Error("evicted dataset's cached result survived")
	}
	if _, _, ok := s.deltas.parentOf(a.Digest); ok {
		t.Error("evicted dataset's lineage record survived")
	}
	var m ServerMetrics
	if status, raw := doJSON(t, client, "GET", ts.URL+"/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: %d %s", status, raw)
	}
	if got := m.Obs.Counters["server.cache.invalidated"]; got != 1 {
		t.Errorf("server.cache.invalidated = %d, want 1", got)
	}
}

// TestStoreListDoesNotTouchRecency pins the List fix at the store level:
// enumerating datasets between two uploads must not protect an old entry
// from eviction.
func TestStoreListDoesNotTouchRecency(t *testing.T) {
	s := NewStore(2, 0)
	old := putTable(t, s, tableBody("old"))
	putTable(t, s, tableBody("new"))
	if got := s.List(); len(got) != 2 {
		t.Fatalf("List = %d entries, want 2", len(got))
	}
	// Had List refreshed "old", this upload would evict "new" instead.
	putTable(t, s, tableBody("next"))
	if _, ok := s.Get(old.Digest); ok {
		t.Error("List refreshed recency: oldest entry survived the eviction")
	}
}

// --- WAL replay through the job manager ----------------------------------

// TestJobManagerRecover replays a journal holding one job per fate:
// finished (kept terminal), in-flight at the crash (reported lost), and
// submitted-but-never-started (re-enqueued and run to completion).
func TestJobManagerRecover(t *testing.T) {
	dir, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	req := &MineRequest{Dataset: "d1"}
	now := time.Now()
	for _, rec := range []persist.JobRecord{
		{Type: persist.RecSubmitted, ID: "j-done", Time: now, Req: req},
		{Type: persist.RecStarted, ID: "j-done", Time: now},
		{Type: persist.RecFinished, ID: "j-done", Time: now, State: JobDone},
		{Type: persist.RecSubmitted, ID: "j-inflight", Time: now, Req: req},
		{Type: persist.RecStarted, ID: "j-inflight", Time: now},
		{Type: persist.RecSubmitted, ID: "j-queued", Time: now, Req: req},
	} {
		if err := dir.AppendJob(rec); err != nil {
			t.Fatal(err)
		}
	}

	m := NewJobManager(context.Background(), 1, 4, func(ctx context.Context, req MineRequest) (*MineResponse, error) {
		return &MineResponse{Dataset: req.Dataset, Transactions: 42}, nil
	})
	defer m.Shutdown(context.Background())
	if err := m.Recover(dir); err != nil {
		t.Fatal(err)
	}

	// The finished job kept its terminal state (result bodies live in
	// the result cache, not the journal).
	jd, ok := m.Get("j-done")
	if !ok {
		t.Fatal("terminal job forgotten")
	}
	if st := m.Status(jd); st.State != JobDone || st.Lost || st.Result != nil {
		t.Errorf("terminal job = %+v", st)
	}

	// The in-flight job is failed with the lost marker.
	ji, ok := m.Get("j-inflight")
	if !ok {
		t.Fatal("in-flight job forgotten")
	}
	if st := m.Status(ji); st.State != JobFailed || !st.Lost || !strings.Contains(st.Error, "lost") {
		t.Errorf("in-flight job = %+v, want failed+lost", st)
	}

	// The queued job re-entered the queue under its original ID and ran.
	jq, ok := m.Get("j-queued")
	if !ok {
		t.Fatal("queued job forgotten")
	}
	waitState(t, m, jq, JobDone)
	if st := m.Status(jq); st.Result == nil || st.Result.Transactions != 42 {
		t.Errorf("recovered job result = %+v", st.Result)
	}

	if recovered, lost := m.RecoveryStats(); recovered != 1 || lost != 1 {
		t.Errorf("recovery stats = %d/%d, want 1 recovered / 1 lost", recovered, lost)
	}

	// The compacted journal replays to the same picture, now including
	// the recovered job's own completion.
	recs, err := dir.ReplayJobs()
	if err != nil {
		t.Fatal(err)
	}
	var sawQueuedDone bool
	for _, rec := range recs {
		if rec.ID == "j-queued" && rec.Type == persist.RecFinished && rec.State == JobDone {
			sawQueuedDone = true
		}
	}
	if !sawQueuedDone {
		t.Errorf("compacted journal missing the recovered job's completion: %+v", recs)
	}
}

// TestJobManagerRecoverQueueOverflow: recovery must not silently drop a
// journaled submission that no longer fits the queue — it is reported
// failed with the lost marker instead.
func TestJobManagerRecoverQueueOverflow(t *testing.T) {
	dir, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	req := &MineRequest{Dataset: "d1"}
	for _, id := range []string{"j-q1", "j-q2"} {
		if err := dir.AppendJob(persist.JobRecord{Type: persist.RecSubmitted, ID: id, Time: time.Now(), Req: req}); err != nil {
			t.Fatal(err)
		}
	}

	started := make(chan string, 8)
	release := make(chan struct{})
	m := NewJobManager(context.Background(), 1, 1, blockingRun(started, release))
	defer m.Shutdown(context.Background())
	// Fill the worker and the 1-slot queue before recovery.
	if _, _, err := m.Submit(MineRequest{Dataset: "live1"}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, _, err := m.Submit(MineRequest{Dataset: "live2"}); err != nil {
		t.Fatal(err)
	}

	if err := m.Recover(dir); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j-q1", "j-q2"} {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("overflowed job %s vanished", id)
		}
		if st := m.Status(j); st.State != JobFailed || !st.Lost || !strings.Contains(st.Error, "queue full") {
			t.Errorf("overflowed job %s = %+v, want failed+lost (queue full)", id, st)
		}
	}
	if recovered, lost := m.RecoveryStats(); recovered != 0 || lost != 2 {
		t.Errorf("recovery stats = %d/%d, want 0 recovered / 2 lost", recovered, lost)
	}
	close(release)
}

// --- End-to-end restart ---------------------------------------------------

// TestServerRestartDurability is the PR's acceptance path: against a
// -data-dir server, upload a scene, mine it synchronously, then crash
// the process (abandoned without Shutdown — no terminal journal records)
// with one job mid-run and one queued. A second server on the same
// directory must serve the dataset by digest (lazy re-parse), report the
// in-flight job failed with lost: true, finish the queued job under its
// original ID, and serve the persisted result as a verified cache hit.
func TestServerRestartDurability(t *testing.T) {
	root := t.TempDir()
	dir1, err := persist.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer dir1.Close()

	s1 := New(Options{Workers: 1, Persistence: dir1})
	// Unblock s1's stuck job at the end (its journal handle points at the
	// pre-compaction inode by then, so the late records land nowhere).
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		s1.Shutdown(ctx)
	}()
	var block atomic.Bool
	blocked := make(chan struct{}, 8)
	s1.mineHook = func(ctx context.Context) error {
		if !block.Load() {
			return nil
		}
		blocked <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	}
	ts1 := httptest.NewServer(s1.Handler())
	client := ts1.Client()

	info := uploadSampleScene(t, client, ts1.URL)
	cfgMined := core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.3}
	var before MineResponse
	if status, raw := doJSON(t, client, "POST", ts1.URL+"/mine", mineBody(t, info.Digest, cfgMined), &before); status != http.StatusOK {
		t.Fatalf("pre-crash mine: %d %s", status, raw)
	}

	// One job mid-run, one queued behind the single worker.
	block.Store(true)
	var inflight, queued JobStatus
	if status, raw := doJSON(t, client, "POST", ts1.URL+"/jobs",
		mineBody(t, info.Digest, core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.4}), &inflight); status != http.StatusAccepted {
		t.Fatalf("submit in-flight job: %d %s", status, raw)
	}
	<-blocked // its started record is journaled before the hook runs
	if status, raw := doJSON(t, client, "POST", ts1.URL+"/jobs",
		mineBody(t, info.Digest, core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.5}), &queued); status != http.StatusAccepted {
		t.Fatalf("submit queued job: %d %s", status, raw)
	}
	// Crash: close the listener and abandon s1 without Shutdown, so the
	// journal ends with started-but-unfinished and queued records.
	ts1.Close()

	dir2, err := persist.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer dir2.Close()
	s2 := New(Options{Workers: 1, Persistence: dir2})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	client2 := ts2.Client()

	// The dataset listing knows the digest before any body is re-read.
	var list struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if status, raw := doJSON(t, client2, "GET", ts2.URL+"/datasets", nil, &list); status != http.StatusOK {
		t.Fatalf("list: %d %s", status, raw)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].Digest != info.Digest || list.Datasets[0].Rows != info.Rows {
		t.Fatalf("restarted listing = %+v, want the persisted dataset", list.Datasets)
	}
	// Fetching by digest lazily re-parses the persisted body.
	var meta datasetInfo
	if status, raw := doJSON(t, client2, "GET", ts2.URL+"/datasets/"+info.Digest, nil, &meta); status != http.StatusOK {
		t.Fatalf("dataset after restart: %d %s", status, raw)
	}
	if meta.Rows != info.Rows || meta.Bytes != info.Bytes {
		t.Errorf("reloaded metadata = %+v, want %+v", meta, info)
	}

	// The in-flight job is failed + lost; the queued one finishes under
	// its original ID.
	var st JobStatus
	if status, raw := doJSON(t, client2, "GET", ts2.URL+"/jobs/"+inflight.ID, nil, &st); status != http.StatusOK {
		t.Fatalf("poll lost job: %d %s", status, raw)
	}
	if st.State != JobFailed || !st.Lost || !strings.Contains(st.Error, "lost") {
		t.Fatalf("crashed-in-flight job = %+v, want failed+lost", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st = JobStatus{} // omitempty fields must not leak between polls
		if status, raw := doJSON(t, client2, "GET", ts2.URL+"/jobs/"+queued.ID, nil, &st); status != http.StatusOK {
			t.Fatalf("poll recovered job: %d %s", status, raw)
		}
		if st.State == JobDone {
			break
		}
		if st.State == JobFailed || st.State == JobCancelled || time.Now().After(deadline) {
			t.Fatalf("recovered job = %+v, want done", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Result == nil || st.Lost {
		t.Errorf("recovered job = %+v, want a result and no lost marker", st)
	}

	// The pre-crash result is served from disk, digest chain verified.
	var after MineResponse
	if status, raw := doJSON(t, client2, "POST", ts2.URL+"/mine", mineBody(t, info.Digest, cfgMined), &after); status != http.StatusOK {
		t.Fatalf("post-restart mine: %d %s", status, raw)
	}
	if !after.Cached {
		t.Error("persisted result was recomputed instead of served from disk")
	}
	if len(after.Frequent) != len(before.Frequent) || after.Transactions != before.Transactions {
		t.Errorf("persisted result differs: %d itemsets / %d transactions, want %d / %d",
			len(after.Frequent), after.Transactions, len(before.Frequent), before.Transactions)
	}

	var m ServerMetrics
	if status, raw := doJSON(t, client2, "GET", ts2.URL+"/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: %d %s", status, raw)
	}
	if m.Persist == nil || !m.Persist.Enabled {
		t.Fatalf("metrics missing the persist block: %+v", m.Persist)
	}
	if m.Persist.JobsLost != 1 || m.Persist.JobsRecovered != 1 {
		t.Errorf("persist jobs = %+v, want 1 lost / 1 recovered", m.Persist)
	}
	if m.Persist.VerifyFailures != 0 {
		t.Errorf("verifyFailures = %d, want 0", m.Persist.VerifyFailures)
	}
	if m.Persist.ResultHits < 1 || m.Obs.Counters["server.persist.result_hits"] < 1 {
		t.Errorf("persisted result hit not counted: %+v / %v", m.Persist, m.Obs.Counters)
	}
	if m.Persist.Datasets != 1 {
		t.Errorf("persisted datasets = %d, want 1", m.Persist.Datasets)
	}

	// Healthz advertises the durable role.
	var h healthz
	if status, raw := doJSON(t, client2, "GET", ts2.URL+"/healthz", nil, &h); status != http.StatusOK || h.Persist != "disk" {
		t.Fatalf("healthz = %d %s %+v, want persist: disk", status, raw, h)
	}
}

// TestJournalReplaysLegacyIndexMember: an older server journaled each
// submitted MineRequest verbatim, so a -data-dir WAL may still hold a
// config naming the retired extraction "index" member, a retired engine
// ("eclat-kc+", "fpgrowth-kc+") or the retired "counting" member.
// Recovery must decode each record, re-enqueue the job under its
// original ID, and mine it to the same result as the canonical
// apriori-kc+ config.
func TestJournalReplaysLegacyIndexMember(t *testing.T) {
	root := t.TempDir()
	dir1, err := persist.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Persistence: dir1})
	ts1 := httptest.NewServer(s1.Handler())
	info := uploadSampleScene(t, ts1.Client(), ts1.URL+"/v1")
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	dir1.Close()

	// Submitted-but-never-started records as older builds wrote them.
	legacy := map[string]string{
		"j-legacy-index":  `{"algorithm":"eclat-kc+","minSupport":0.3,"extraction":{"topological":true,"index":"none"}}`,
		"j-legacy-engine": `{"algorithm":"fpgrowth-kc+","minSupport":0.3,"counting":"horizontal","extraction":{"topological":true}}`,
	}
	f, err := os.OpenFile(filepath.Join(root, "jobs.wal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for id, config := range legacy {
		line := fmt.Sprintf(`{"t":%q,"id":%q,"time":%q,"req":{"dataset":%q,"config":%s}}`+"\n",
			persist.RecSubmitted, id, time.Now().Format(time.RFC3339Nano), info.Digest, config)
		if _, err := f.WriteString(line); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	dir2, err := persist.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer dir2.Close()
	s2 := New(Options{Persistence: dir2})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	cfg := core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.3, Extraction: transact.Options{Topological: true}}
	var fresh MineResponse
	if status, raw := doJSON(t, ts2.Client(), "POST", ts2.URL+"/v1/mine", mineBody(t, info.Digest, cfg), &fresh); status != http.StatusOK {
		t.Fatalf("canonical mine: %d %s", status, raw)
	}
	for id := range legacy {
		var st JobStatus
		deadline := time.Now().Add(30 * time.Second)
		for {
			st = JobStatus{}
			if status, raw := doJSON(t, ts2.Client(), "GET", ts2.URL+"/v1/jobs/"+id, nil, &st); status != http.StatusOK {
				t.Fatalf("poll recovered job %s: %d %s", id, status, raw)
			}
			if st.State == JobDone {
				break
			}
			if st.State == JobFailed || st.State == JobCancelled || time.Now().After(deadline) {
				t.Fatalf("recovered job %s = %+v, want done", id, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if st.Result == nil || st.Lost {
			t.Fatalf("recovered job %s = %+v, want a result and no lost marker", id, st)
		}
		if st.Result.Algorithm != "apriori-kc+" || !reflect.DeepEqual(st.Result.Frequent, fresh.Frequent) ||
			st.Result.Transactions != fresh.Transactions {
			t.Errorf("job %s mined %s: %d itemsets / %d transactions, canonical config %d / %d", id,
				st.Result.Algorithm, len(st.Result.Frequent), st.Result.Transactions, len(fresh.Frequent), fresh.Transactions)
		}
	}
}

// TestPersistedResultVerifyFailureRecomputes corrupts a persisted result
// on disk between two server generations: the restarted server must
// refuse to serve it (counting the verification failure), recompute, and
// re-persist a good entry.
func TestPersistedResultVerifyFailureRecomputes(t *testing.T) {
	root := t.TempDir()
	dir1, err := persist.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Persistence: dir1})
	ts1 := httptest.NewServer(s1.Handler())
	client := ts1.Client()

	var info datasetInfo
	if status, raw := doJSON(t, client, "POST", ts1.URL+"/datasets/table", []byte("r1,a,b\nr2,a,b\nr3,a,c\n"), &info); status != http.StatusCreated {
		t.Fatalf("upload: %d %s", status, raw)
	}
	cfg := core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.5}
	var before MineResponse
	if status, raw := doJSON(t, client, "POST", ts1.URL+"/mine", mineBody(t, info.Digest, cfg), &before); status != http.StatusOK {
		t.Fatalf("mine: %d %s", status, raw)
	}
	s1.Shutdown(context.Background())
	ts1.Close()
	dir1.Close()

	// Corrupt the one persisted result.
	files, err := filepath.Glob(filepath.Join(root, "results", "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("persisted results = %v (%v), want exactly 1", files, err)
	}
	if err := os.WriteFile(files[0], []byte(`{"chain":{"dataset":"bad"},"response":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	dir2, err := persist.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer dir2.Close()
	s2 := New(Options{Persistence: dir2})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	var resp MineResponse
	if status, raw := doJSON(t, ts2.Client(), "POST", ts2.URL+"/mine", mineBody(t, info.Digest, cfg), &resp); status != http.StatusOK {
		t.Fatalf("mine after corruption: %d %s", status, raw)
	}
	if resp.Cached {
		t.Error("corrupt persisted entry was served as a cache hit")
	}
	if len(resp.Frequent) != len(before.Frequent) {
		t.Errorf("recomputed %d itemsets, want %d", len(resp.Frequent), len(before.Frequent))
	}
	var m ServerMetrics
	if status, raw := doJSON(t, ts2.Client(), "GET", ts2.URL+"/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: %d %s", status, raw)
	}
	if m.Persist == nil || m.Persist.VerifyFailures != 1 {
		t.Fatalf("verifyFailures = %+v, want exactly 1", m.Persist)
	}
	if got := m.Obs.Counters["server.persist.verify_failures"]; got != 1 {
		t.Errorf("trace counter server.persist.verify_failures = %d, want 1", got)
	}

	// The recompute re-persisted a good entry: a third generation serves
	// it from disk again.
	s3 := func() *Server {
		dir3, err := persist.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dir3.Close() })
		return New(Options{Persistence: dir3})
	}()
	defer s3.Shutdown(context.Background())
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	var again MineResponse
	if status, raw := doJSON(t, ts3.Client(), "POST", ts3.URL+"/mine", mineBody(t, info.Digest, cfg), &again); status != http.StatusOK {
		t.Fatalf("third-generation mine: %d %s", status, raw)
	}
	if !again.Cached {
		t.Error("re-persisted result not served from disk")
	}
}

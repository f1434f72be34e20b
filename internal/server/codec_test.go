package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/api"
	"repro/internal/server/persist"
)

// TestUploadSceneRejectsMalformedDocument: data after the document and a
// schema key given twice are 400 bad_request envelopes, not a silently
// truncated or merged scene.
func TestUploadSceneRejectsMalformedDocument(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	for name, doc := range map[string]string{
		"trailing-data": `{"reference":{"type":"d","features":[{"id":"a","wkt":"POINT (1 2)"}]}} garbage`,
		"duplicate-key": `{"reference":{"type":"d","features":[{"id":"a","wkt":"POINT (1 2)","attrs":{"k":"v"}}],"features":[{"id":"b"}]}}`,
		"wkt-trailing":  `{"reference":{"type":"d","features":[{"id":"a","wkt":"POLYGON ((0 0, 1 0, 1 1, 0 0)), (5 5)"}]}}`,
	} {
		status, raw := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/datasets/scene", []byte(doc), nil)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, status, raw)
			continue
		}
		if env := decodeEnvelope(t, raw); env.Code != api.CodeBadRequest {
			t.Errorf("%s: code %q, want %q", name, env.Code, api.CodeBadRequest)
		}
	}
	if n := s.store.Stats().Entries; n != 0 {
		t.Errorf("rejected uploads stored %d datasets", n)
	}
}

// TestCodecStagesInMetrics: uploads and store reloads are timed as the
// "load" stage and PATCH-successor serialisation as "scene.encode",
// and the successor's digest is that of its WriteJSON bytes.
func TestCodecStagesInMetrics(t *testing.T) {
	root := t.TempDir()
	dir, err := persist.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	s := New(Options{Persistence: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	info, scene := uploadGeneratedScene(t, client, ts.URL+"/v1", 3)
	uploadSampleTable(t, client, ts.URL+"/v1")
	ops := singleMoveOps(scene)
	body, err := json.Marshal(api.PatchRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	var patched api.PatchResponse
	if status, raw := doJSON(t, client, "PATCH", ts.URL+"/v1/datasets/"+info.Digest, body, &patched); status != http.StatusCreated {
		t.Fatalf("patch: %d %s", status, raw)
	}
	succ, _, err := scene.ApplyOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := succ.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if want := Digest(buf.Bytes()); patched.Dataset.Digest != want || patched.Dataset.Bytes != int64(buf.Len()) {
		t.Errorf("successor = %s (%d bytes), want the WriteJSON digest %s (%d bytes)",
			patched.Dataset.Digest, patched.Dataset.Bytes, want, buf.Len())
	}

	var m api.Metrics
	if status, raw := doJSON(t, client, "GET", ts.URL+"/v1/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: %d %s", status, raw)
	}
	for _, name := range []string{"stage.load.nanos", "stage.scene.encode.nanos"} {
		if m.Obs.Counters[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, m.Obs.Counters[name])
		}
	}

	// A restarted server re-parses the persisted scene on first use,
	// under the same stage.
	s2 := New(Options{Persistence: dir})
	defer s2.Shutdown(context.Background())
	if _, ok := s2.store.Get(info.Digest); !ok {
		t.Fatal("persisted scene not reloaded")
	}
	if n := s2.trace.Counter("stage.load.nanos"); n <= 0 {
		t.Errorf("reload: stage.load.nanos = %d, want > 0", n)
	}
}

// TestReloadOfBodyTheStricterReaderRejects: scene bodies persisted by a
// server whose reader still accepted data after the document or a
// repeated schema key no longer reload. Such a digest answers 404 like
// an unknown one, and the failure is counted, unlike a digest that was
// never saved.
func TestReloadOfBodyTheStricterReaderRejects(t *testing.T) {
	dir, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	const feat = `{"id":"a","wkt":"POINT (1 2)"}`
	good := []byte(`{"reference":{"type":"d","features":[` + feat + `]}}`)
	rejected := [][]byte{
		[]byte(`{"reference":{"type":"d","features":[` + feat + `]}} garbage`),
		[]byte(`{"reference":{"type":"d","features":[` + feat + `],"features":[{"id":"b"}]}}`),
	}
	for _, body := range append([][]byte{good}, rejected...) {
		if err := dir.SaveDataset(Digest(body), body, KindScene, 1); err != nil {
			t.Fatal(err)
		}
	}

	s := New(Options{Persistence: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	get := func(digest string) int {
		status, _ := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/datasets/"+digest, nil, nil)
		return status
	}
	if status := get(Digest(good)); status != http.StatusOK {
		t.Fatalf("well-formed persisted scene: status %d, want 200", status)
	}
	if status := get(Digest([]byte("never saved"))); status != http.StatusNotFound {
		t.Fatalf("unsaved digest: status %d, want 404", status)
	}
	if n := s.trace.Counter("server.persist.reload_errors"); n != 0 {
		t.Fatalf("server.persist.reload_errors = %d before any failed reload, want 0", n)
	}
	for _, body := range rejected {
		if status := get(Digest(body)); status != http.StatusNotFound {
			t.Errorf("persisted %q: status %d, want 404", body, status)
		}
	}
	var m api.Metrics
	if status, raw := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: status %d (%s)", status, raw)
	}
	if got := m.Obs.Counters["server.persist.reload_errors"]; got != int64(len(rejected)) {
		t.Errorf("server.persist.reload_errors = %d, want %d", got, len(rejected))
	}
}

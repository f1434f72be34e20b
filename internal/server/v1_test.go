package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/api"
)

// decodeEnvelope parses a /v1 error body, failing the test on anything
// that is not the uniform envelope.
func decodeEnvelope(t *testing.T, raw string) api.ErrorBody {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal([]byte(raw), &env); err != nil || env.Error.Code == "" {
		t.Fatalf("body %q is not the error envelope (err %v)", raw, err)
	}
	return env.Error
}

// TestRouteTableBothSurfaces enumerates the endpoint table and requires
// every route to answer on its /v1 path without deprecation markers and
// on its legacy alias WITH them — same status either way. This is the
// contract test for the /v1 migration: adding an endpoint to one
// surface but not the other fails here.
func TestRouteTableBothSurfaces(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	// Fill the path placeholders with values that at worst 404; the
	// point is routing parity, not happy paths.
	fill := func(p string) string {
		p = strings.ReplaceAll(p, "{digest}", "beef")
		return strings.ReplaceAll(p, "{id}", "j000000-00000042")
	}
	for _, rt := range s.routeTable() {
		rt := rt
		t.Run(rt.Method+" "+rt.V1, func(t *testing.T) {
			do := func(path string) *http.Response {
				req, err := http.NewRequest(rt.Method, ts.URL+fill(path), strings.NewReader(""))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				return resp
			}
			v1 := do(rt.V1)
			legacy := do(rt.Legacy)
			if v1.StatusCode != legacy.StatusCode {
				t.Errorf("status diverges: /v1 %d vs legacy %d", v1.StatusCode, legacy.StatusCode)
			}
			if v1.StatusCode == http.StatusMethodNotAllowed {
				t.Errorf("%s %s not routed", rt.Method, rt.V1)
			}
			if got := v1.Header.Get("Deprecation"); got != "" {
				t.Errorf("/v1 path carries Deprecation %q", got)
			}
			if got := legacy.Header.Get("Deprecation"); got != "true" {
				t.Errorf("legacy alias Deprecation = %q, want true", got)
			}
			wantLink := "<" + rt.V1 + `>; rel="successor-version"`
			if got := legacy.Header.Get("Link"); got != wantLink {
				t.Errorf("legacy Link = %q, want %q", got, wantLink)
			}
		})
	}
	if n := s.trace.Counters()["server.legacy.requests"]; n != int64(len(s.routeTable())) {
		t.Errorf("server.legacy.requests = %d, want %d", n, len(s.routeTable()))
	}
}

// TestErrorEnvelopeCodes pins the machine-readable code for each error
// class the API can emit.
func TestErrorEnvelopeCodes(t *testing.T) {
	s := New(Options{MaxUploadBytes: 1 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	var info datasetInfo
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/datasets/table", []byte("r1,a,b\nr2,a,b\n"), &info); status != http.StatusCreated {
		t.Fatalf("upload: %d %s", status, raw)
	}
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 api.ErrorCode
		wantMessage              string // substring; "" skips the check
	}{
		{"unknown route", "GET", "/v1/nope", "", 404, api.CodeNotFound, ""},
		{"garbage body", "POST", "/v1/mine", "}{", 400, api.CodeBadRequest, ""},
		{"unknown dataset", "POST", "/v1/mine", `{"dataset":"beef","config":{"minSupport":0.5}}`, 404, api.CodeNotFound, ""},
		{"unknown job", "GET", "/v1/jobs/j000000-00000042", "", 404, api.CodeNotFound, ""},
		{"unknown counting value", "POST", "/v1/mine",
			fmt.Sprintf(`{"dataset":%q,"config":{"minSupport":0.5,"counting":"diagonal"}}`, info.Digest),
			400, api.CodeBadRequest, "counting"},
		{"numeric counting job", "POST", "/v1/jobs",
			fmt.Sprintf(`{"dataset":%q,"config":{"minSupport":0.5,"counting":3}}`, info.Digest),
			400, api.CodeBadRequest, "counting"},
		{"pipeline config error", "POST", "/v1/colocate",
			fmt.Sprintf(`{"dataset":%q,"config":{"distance":1,"minPI":0.5}}`, info.Digest),
			422, api.CodeConfigInvalid, ""},
		{"minConfidence above 1", "POST", "/v1/mine",
			fmt.Sprintf(`{"dataset":%q,"config":{"minSupport":0.5,"generateRules":true,"minConfidence":1.5}}`, info.Digest),
			400, api.CodeBadRequest, "minConfidence"},
		{"negative minConfidence job", "POST", "/v1/jobs",
			fmt.Sprintf(`{"dataset":%q,"config":{"minSupport":0.5,"minConfidence":-0.1}}`, info.Digest),
			400, api.CodeBadRequest, "minConfidence"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := doJSON(t, client, tc.method, ts.URL+tc.path, []byte(tc.body), nil)
			if status != tc.wantStatus {
				t.Fatalf("status %d %s, want %d", status, raw, tc.wantStatus)
			}
			eb := decodeEnvelope(t, raw)
			if eb.Code != tc.wantCode {
				t.Errorf("code %q, want %q", eb.Code, tc.wantCode)
			}
			if !strings.Contains(eb.Message, tc.wantMessage) {
				t.Errorf("message %q does not name %q", eb.Message, tc.wantMessage)
			}
			if eb.RequestID == "" {
				t.Error("envelope missing requestId")
			}
		})
	}
}

// TestRequestIDAdoptedAndGenerated: a caller-supplied X-Request-ID is
// echoed on the response and into error envelopes; absent one, the
// middleware mints an ID.
func TestRequestIDAdoptedAndGenerated(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	req, _ := http.NewRequest("GET", ts.URL+"/v1/datasets/beef", nil)
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env api.ErrorEnvelope
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("response X-Request-ID = %q, want the caller's", got)
	}
	if env.Error.RequestID != "trace-me-42" {
		t.Errorf("envelope requestId = %q, want the caller's", env.Error.RequestID)
	}

	resp2, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("generated request ID %q, want 16 hex chars", got)
	}
}

// TestRetryAfterOn503 requires every 503 — draining and queue-full — to
// carry a Retry-After hint and the matching machine code.
func TestRetryAfterOn503(t *testing.T) {
	t.Run("draining", func(t *testing.T) {
		s := New(Options{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/mine", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("draining 503 missing Retry-After")
		}
		var env api.ErrorEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		if env.Error.Code != api.CodeDraining {
			t.Errorf("code %q, want draining", env.Error.Code)
		}
	})

	t.Run("queue full", func(t *testing.T) {
		s := New(Options{Workers: 1, QueueCap: 1})
		release := make(chan struct{})
		s.mineHook = func(ctx context.Context) error {
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer func() {
			close(release) // unblock the pool before draining
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		client := ts.Client()

		var info datasetInfo
		doJSON(t, client, "POST", ts.URL+"/v1/datasets/table", []byte("r1,a,b\n"), &info)
		body := fmt.Sprintf(`{"dataset":%q,"config":{"minSupport":0.5}}`, info.Digest)
		// One running + one queued fill the pool; the next submission
		// must bounce with 503 queue_full and a Retry-After hint.
		var last *http.Response
		for i := 0; i < 8; i++ {
			resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode == http.StatusServiceUnavailable {
				last = resp
				break
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d: status %d", i, resp.StatusCode)
			}
		}
		if last == nil {
			t.Fatal("queue never filled")
		}
		defer last.Body.Close()
		if last.Header.Get("Retry-After") == "" {
			t.Error("queue-full 503 missing Retry-After")
		}
		var env api.ErrorEnvelope
		json.NewDecoder(last.Body).Decode(&env)
		if env.Error.Code != api.CodeQueueFull {
			t.Errorf("code %q, want queue_full", env.Error.Code)
		}
	})
}

// TestMineLegacyIndexWireCompat: the retired extraction "index" member
// still decodes for old clients. Naming a former index kind is a
// counted hit on the index-less request's cache entry with an identical
// body; any other index value is a 400 bad_request on the sync and
// async routes.
func TestMineLegacyIndexWireCompat(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	info := uploadSampleScene(t, ts.Client(), ts.URL+"/v1")
	body := func(extraction string) []byte {
		return []byte(fmt.Sprintf(`{"dataset":%q,"config":{"algorithm":"apriori-kc+","minSupport":0.3,"extraction":%s}}`, info.Digest, extraction))
	}

	var first api.MineResponse
	status, raw := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/mine", body(`{"topological":true}`), &first)
	if status != http.StatusOK {
		t.Fatalf("mine: %d %s", status, raw)
	}
	hits := s.cache.Stats().Hits
	var legacy api.MineResponse
	status, raw = doJSON(t, ts.Client(), "POST", ts.URL+"/v1/mine", body(`{"topological":true,"index":"grid"}`), &legacy)
	if status != http.StatusOK {
		t.Fatalf("legacy index: %d %s", status, raw)
	}
	if !legacy.Cached || s.cache.Stats().Hits != hits+1 {
		t.Fatalf("legacy index not a counted cache hit (hits %d -> %d): %s", hits, s.cache.Stats().Hits, raw)
	}
	legacy.Cached = false
	if !reflect.DeepEqual(legacy, first) {
		t.Fatalf("legacy index served a different body:\n got %+v\nwant %+v", legacy, first)
	}

	for _, path := range []string{"/v1/mine", "/v1/jobs"} {
		status, raw := doJSON(t, ts.Client(), "POST", ts.URL+path, body(`{"topological":true,"index":"kd"}`), nil)
		if status != http.StatusBadRequest {
			t.Fatalf("%s index kd: %d %s, want 400", path, status, raw)
		}
		if eb := decodeEnvelope(t, raw); eb.Code != api.CodeBadRequest {
			t.Fatalf("%s index kd: code %q, want %q", path, eb.Code, api.CodeBadRequest)
		}
	}
}

// TestRetiredEngineSharesCacheEntry: every KC+ engine mined the same
// pattern set, so a request naming a retired engine ("eclat-kc+",
// "fpgrowth-kc+", ...) with a retired "counting" spelling decodes to
// the canonical apriori-kc+ config. After an apriori-kc+ mine it is a
// counter-verified cache hit with an identical body, and never re-mines.
func TestRetiredEngineSharesCacheEntry(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	info := uploadSampleScene(t, ts.Client(), ts.URL+"/v1")
	body := func(alg, extra string) []byte {
		return []byte(fmt.Sprintf(`{"dataset":%q,"config":{"algorithm":%q,"minSupport":0.3%s}}`, info.Digest, alg, extra))
	}

	var first api.MineResponse
	status, raw := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/mine", body("apriori-kc+", ""), &first)
	if status != http.StatusOK {
		t.Fatalf("mine: %d %s", status, raw)
	}
	runs := s.trace.Counter("server.mine.runs")
	for _, req := range []struct{ alg, extra string }{
		{"eclat-kc+", `,"counting":"horizontal"`},
		{"fpgrowth-kc+", ""},
		{"eclat", `,"counting":"vertical"`},
		{"fpgrowth", `,"counting":""`},
	} {
		hits := s.cache.Stats().Hits
		var legacy api.MineResponse
		status, raw = doJSON(t, ts.Client(), "POST", ts.URL+"/v1/mine", body(req.alg, req.extra), &legacy)
		if status != http.StatusOK {
			t.Fatalf("%s%s: %d %s", req.alg, req.extra, status, raw)
		}
		if !legacy.Cached || s.cache.Stats().Hits != hits+1 {
			t.Fatalf("%s%s not a counted cache hit (hits %d -> %d): %s", req.alg, req.extra, hits, s.cache.Stats().Hits, raw)
		}
		legacy.Cached = false
		if !reflect.DeepEqual(legacy, first) {
			t.Fatalf("%s%s served a different body:\n got %+v\nwant %+v", req.alg, req.extra, legacy, first)
		}
	}
	if got := s.trace.Counter("server.mine.runs"); got != runs {
		t.Fatalf("retired engine requests re-ran the miner: runs %d -> %d", runs, got)
	}
}

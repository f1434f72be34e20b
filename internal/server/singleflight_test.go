package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
)

func testTrace() *obs.Trace {
	return obs.New(obs.NewRingCollector(64))
}

// waitCounter polls a trace counter until it reaches want or the
// deadline passes.
func waitCounter(t *testing.T, trace *obs.Trace, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for trace.Counters()[name] < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s = %d, want %d", name, trace.Counters()[name], want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescingEndToEnd is the tentpole's acceptance test: N identical
// concurrent sync mines share exactly ONE computation — proven by the
// counters, not by timing — and every caller receives byte-identical
// bytes.
func TestCoalescingEndToEnd(t *testing.T) {
	const n = 8
	s := New(Options{Workers: 2})
	// Gate the computation so all N requests are provably concurrent:
	// the hook blocks the (single) leader until the test has counted
	// n-1 coalesce hits.
	entered := make(chan struct{}, n)
	release := make(chan struct{})
	s.mineHook = func(ctx context.Context) error {
		entered <- struct{}{}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	client := ts.Client()

	var info datasetInfo
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/datasets/table", []byte("r1,a,b\nr2,a,b\nr3,a,c\n"), &info); status != http.StatusCreated {
		t.Fatalf("upload: %d %s", status, raw)
	}
	body := fmt.Sprintf(`{"dataset":%q,"config":{"minSupport":0.5}}`, info.Digest)

	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = doJSON(t, client, "POST", ts.URL+"/v1/mine", []byte(body), nil)
		}(i)
	}
	<-entered // the leader is mid-compute
	// All other requests must join its flight, never start their own.
	waitCounter(t, s.trace, "coalesce.hits", n-1)
	select {
	case <-entered:
		t.Fatal("a second computation started for an identical in-flight request")
	default:
	}
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, statuses[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Errorf("request %d response differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	var first MineResponse
	if err := json.Unmarshal([]byte(bodies[0]), &first); err != nil {
		t.Fatalf("bad mine response %q: %v", bodies[0], err)
	}
	if first.Cached {
		t.Error("coalesced responses must not be marked cached")
	}
	c := s.trace.Counters()
	if c["coalesce.leaders"] != 1 {
		t.Errorf("coalesce.leaders = %d, want 1", c["coalesce.leaders"])
	}
	if c["coalesce.hits"] != n-1 {
		t.Errorf("coalesce.hits = %d, want %d", c["coalesce.hits"], n-1)
	}
	if c["server.mine.runs"] != 1 {
		t.Errorf("server.mine.runs = %d, want exactly 1 computation for %d requests", c["server.mine.runs"], n)
	}
	if got := s.flights.inFlight(); got != 0 {
		t.Errorf("%d flights still live after completion", got)
	}

	// The leader's cache fill serves request n+1 without a new flight.
	var followUp MineResponse
	if status, raw := doJSON(t, client, "POST", ts.URL+"/v1/mine", []byte(body), &followUp); status != http.StatusOK || !followUp.Cached {
		t.Errorf("follow-up request: %d %s, want a cache hit", status, raw)
	}
	if c := s.trace.Counters(); c["coalesce.leaders"] != 1 {
		t.Errorf("cache hit started a new flight (leaders = %d)", c["coalesce.leaders"])
	}
}

// TestFlightFollowerSurvivesLeaderCancel: the computation is detached
// from the leader's context — when the leader's request dies, a
// follower still waiting must receive the result.
func TestFlightFollowerSurvivesLeaderCancel(t *testing.T) {
	g := newFlightGroup(testTrace())
	computing := make(chan struct{})
	release := make(chan struct{})
	want := &MineResponse{Algorithm: "test"}
	compute := func(ctx context.Context) (*MineResponse, error) {
		close(computing)
		select {
		case <-release:
			return want, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderOut := make(chan error, 1)
	go func() {
		_, err := g.do(leaderCtx, context.Background(), "k", compute)
		leaderOut <- err
	}()
	<-computing

	followerOut := make(chan *MineResponse, 1)
	go func() {
		resp, err := g.do(context.Background(), context.Background(), "k", compute)
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		followerOut <- resp
	}()
	// The follower must have joined (not started a second flight)
	// before we kill the leader.
	waitCounterGroup(t, g, 2)

	cancelLeader()
	if err := <-leaderOut; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader got %v", err)
	}
	close(release)
	if resp := <-followerOut; resp != want {
		t.Fatalf("follower got %v, want the shared result", resp)
	}
	if n := g.trace.Counters()["coalesce.abandoned"]; n != 0 {
		t.Errorf("coalesce.abandoned = %d with a live follower", n)
	}
}

// waitCounterGroup polls until the flight for any key has the wanted
// waiter count.
func waitCounterGroup(t *testing.T, g *flightGroup, waiters int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		n := 0
		for _, fl := range g.flights {
			n += fl.waiters
		}
		g.mu.Unlock()
		if n >= waiters {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flights never reached %d waiters", waiters)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightAbandonedWhenAllWaitersLeave: when the last waiter's
// context ends, the computation is cancelled instead of burning CPU for
// nobody, and the key is free for the next request.
func TestFlightAbandonedWhenAllWaitersLeave(t *testing.T) {
	g := newFlightGroup(testTrace())
	computing := make(chan struct{})
	computeCancelled := make(chan struct{})
	compute := func(ctx context.Context) (*MineResponse, error) {
		close(computing)
		<-ctx.Done()
		close(computeCancelled)
		return nil, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan error, 1)
	go func() {
		_, err := g.do(ctx, context.Background(), "k", compute)
		out <- err
	}()
	<-computing
	cancel()
	if err := <-out; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter got %v, want Canceled", err)
	}
	select {
	case <-computeCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned computation was never cancelled")
	}
	waitCounter(t, g.trace, "coalesce.abandoned", 1)
	// The key is immediately reusable: a fresh request leads anew.
	deadline := time.Now().Add(5 * time.Second)
	for g.inFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight still registered")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := g.do(context.Background(), context.Background(), "k",
		func(context.Context) (*MineResponse, error) { return &MineResponse{Algorithm: "fresh"}, nil })
	if err != nil || resp.Algorithm != "fresh" {
		t.Fatalf("fresh flight after abandon: %v %v", resp, err)
	}
	if n := g.trace.Counters()["coalesce.leaders"]; n != 2 {
		t.Errorf("coalesce.leaders = %d, want 2", n)
	}
}

// TestMineRechecksCacheBeforeComputing pins the check-then-act race
// between the result cache and the flight group, in the one order that
// used to mine a key twice: a follower misses the cache, the leader's
// flight completes, fills the cache and retires, and only then does the
// follower reach the flight group. The follower must be served the
// cached result instead of starting a second computation.
func TestMineRechecksCacheBeforeComputing(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background())
	table, err := dataset.ReadTableCSV(strings.NewReader("r1,a,b\nr2,a,b\nr3,a,c\n"))
	if err != nil {
		t.Fatal(err)
	}
	sd, err := s.store.PutTable([]byte("r1,a,b\nr2,a,b\nr3,a,c\n"), table)
	if err != nil {
		t.Fatal(err)
	}
	req := MineRequest{Dataset: sd.Digest, Config: core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.5}}

	// The first request to miss (the follower) parks between its cache
	// miss and flights.do until the test releases it.
	missed := make(chan struct{})
	release := make(chan struct{})
	var misses atomic.Int32
	s.missHook = func() {
		if misses.Add(1) == 1 {
			close(missed)
			<-release
		}
	}
	type result struct {
		resp *MineResponse
		err  error
	}
	follower := make(chan result, 1)
	go func() {
		resp, err := s.mine(context.Background(), req)
		follower <- result{resp, err}
	}()
	<-missed

	// The leader runs its whole flight while the follower is parked.
	if _, err := s.mine(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if n := s.flights.inFlight(); n != 0 {
		t.Fatalf("leader's flight not retired: %d in flight", n)
	}
	close(release)
	got := <-follower
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !got.resp.Cached {
		t.Error("follower was not served from the cache")
	}
	if runs := s.trace.Counter("server.mine.runs"); runs != 1 {
		t.Errorf("server.mine.runs = %d, want 1: the follower mined the key again", runs)
	}
	if st := s.cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want the follower counted as one hit and the leader as one miss", st)
	}
	if hits, misses := s.trace.Counter("server.cache.hits"), s.trace.Counter("server.cache.misses"); hits != 1 || misses != 1 {
		t.Errorf("trace counters hits=%d misses=%d, want 1 and 1 as in the cache stats", hits, misses)
	}
}

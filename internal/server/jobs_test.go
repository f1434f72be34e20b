package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// blockingRun returns a run function that signals started, then blocks
// until its context is cancelled (returning ctx.Err()) or release is
// closed (returning an empty response).
func blockingRun(started chan<- string, release <-chan struct{}) func(context.Context, MineRequest) (*MineResponse, error) {
	return func(ctx context.Context, req MineRequest) (*MineResponse, error) {
		if started != nil {
			started <- req.Dataset
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return &MineResponse{Dataset: req.Dataset}, nil
		}
	}
}

func waitState(t *testing.T, m *JobManager, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := m.Status(j); st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", j.id, m.Status(j).State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobLifecycleDone(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	m := NewJobManager(context.Background(), 1, 4, blockingRun(started, release))
	defer m.Shutdown(context.Background())

	j, _, err := m.Submit(MineRequest{Dataset: "d1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	waitState(t, m, j, JobRunning)
	close(release)
	<-j.Done()
	st := m.Status(j)
	if st.State != JobDone || st.Result == nil || st.Result.Dataset != "d1" {
		t.Fatalf("status = %+v", st)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Error("timestamps missing on a finished job")
	}
	if s := m.Stats(); s.Done != 1 || s.Submitted != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestJobCancelRunning(t *testing.T) {
	started := make(chan string, 1)
	m := NewJobManager(context.Background(), 1, 4, blockingRun(started, nil))
	defer m.Shutdown(context.Background())

	j, _, err := m.Submit(MineRequest{Dataset: "d1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	waitState(t, m, j, JobRunning)
	if _, ok := m.Cancel(j.id); !ok {
		t.Fatal("cancel of a known job failed")
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job did not finish promptly")
	}
	if st := m.Status(j); st.State != JobCancelled {
		t.Fatalf("state = %q, want cancelled", st.State)
	}
	if _, ok := m.Cancel("j99999999"); ok {
		t.Error("cancel of an unknown job must report false")
	}
	// Cancelling a terminal job is a no-op.
	if state, ok := m.Cancel(j.id); !ok || state != JobCancelled {
		t.Errorf("re-cancel = %q/%v", state, ok)
	}
}

func TestJobCancelQueued(t *testing.T) {
	started := make(chan string, 1)
	m := NewJobManager(context.Background(), 1, 4, blockingRun(started, nil))
	defer m.Shutdown(context.Background())

	// Fill the single worker, then queue a second job.
	j1, _, err := m.Submit(MineRequest{Dataset: "running"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, _, err := m.Submit(MineRequest{Dataset: "queued"})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Status(j2); st.State != JobQueued {
		t.Fatalf("second job state = %q, want queued", st.State)
	}
	if _, ok := m.Cancel(j2.id); !ok {
		t.Fatal("cancel queued job failed")
	}
	<-j2.Done()
	if st := m.Status(j2); st.State != JobCancelled {
		t.Fatalf("queued job state = %q, want cancelled", st.State)
	}
	// The worker must skip the cancelled job entirely: cancel j1 and
	// confirm the run function was never invoked for j2.
	m.Cancel(j1.id)
	<-j1.Done()
	select {
	case ds := <-started:
		t.Fatalf("cancelled queued job ran anyway (%q)", ds)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestJobQueueFullAndDraining(t *testing.T) {
	started := make(chan string, 1)
	m := NewJobManager(context.Background(), 1, 1, blockingRun(started, nil))

	if _, _, err := m.Submit(MineRequest{Dataset: "a"}); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy
	if _, _, err := m.Submit(MineRequest{Dataset: "b"}); err != nil {
		t.Fatal(err) // fills the queue
	}
	if _, _, err := m.Submit(MineRequest{Dataset: "c"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}

	// Shutdown with an immediate deadline cancels the running job and
	// the queued one, and Submit starts failing with ErrDraining.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired-deadline shutdown err = %v", err)
	}
	if _, _, err := m.Submit(MineRequest{Dataset: "d"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-shutdown submit err = %v, want ErrDraining", err)
	}
	st := m.Stats()
	if st.Cancelled != 2 || st.Running != 0 || st.Queued != 0 {
		t.Errorf("post-shutdown stats = %+v, want 2 cancelled and nothing live", st)
	}
}

func TestJobShutdownDrainsInFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	var runs atomic.Int64
	m := NewJobManager(context.Background(), 1, 4, func(ctx context.Context, req MineRequest) (*MineResponse, error) {
		runs.Add(1)
		return blockingRun(started, release)(ctx, req)
	})
	j, _, err := m.Submit(MineRequest{Dataset: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- m.Shutdown(ctx)
	}()
	// The in-flight job is allowed to finish within the deadline.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("drain within deadline must return nil, got %v", err)
	}
	if st := m.Status(j); st.State != JobDone {
		t.Fatalf("drained job state = %q, want done", st.State)
	}
	if runs.Load() != 1 {
		t.Errorf("run invoked %d times", runs.Load())
	}
	// A second Shutdown is a no-op.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

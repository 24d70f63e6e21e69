package loadgen

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"datamarket/client"
	"datamarket/internal/randx"
)

// fakeWorkload mints workers that sleep for latency and then report one
// unit, optionally failing.
type fakeWorkload struct {
	latency time.Duration
	err     error
	issued  atomic.Int64
}

func (f *fakeWorkload) Name() string                                      { return "fake" }
func (f *fakeWorkload) Setup(context.Context, *client.Client) error       { return nil }
func (f *fakeWorkload) Summary(context.Context) (*ScenarioSummary, error) { return nil, nil }
func (f *fakeWorkload) NewWorker(int) (Worker, error) {
	return &fakeWorker{wl: f}, nil
}

type fakeWorker struct{ wl *fakeWorkload }

func (w *fakeWorker) Issue(ctx context.Context) (int, error) {
	w.wl.issued.Add(1)
	if d := w.wl.latency; d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	if w.wl.err != nil {
		return 0, w.wl.err
	}
	return 1, nil
}

// TestOpenLoopPacingUnderSlowServer is the coordinated-omission guard:
// a server 12× slower than the arrival interval must not slow the
// arrival process down — the issued count stays pinned to
// rate × duration, and measured latency reflects the service time.
func TestOpenLoopPacingUnderSlowServer(t *testing.T) {
	const (
		rate     = 400.0
		duration = 300 * time.Millisecond
		latency  = 30 * time.Millisecond // 12× the 2.5ms arrival interval
	)
	wl := &fakeWorkload{latency: latency}
	out, err := OpenLoop(context.Background(), wl, OpenLoopConfig{
		Rate: rate, Duration: duration, MaxOutstanding: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(rate * duration.Seconds()) // 120 scheduled ops
	if out.Issued+out.Dropped != want {
		t.Fatalf("issued %d + dropped %d != scheduled %d", out.Issued, out.Dropped, want)
	}
	if out.Dropped != 0 {
		t.Errorf("dropped %d ops despite outstanding headroom", out.Dropped)
	}
	// A closed loop at this latency would manage only ~10 ops per worker;
	// the open loop must stay within tolerance of the schedule.
	if out.Issued < want*7/10 {
		t.Errorf("issued %d, want ≥ %d (70%% of schedule)", out.Issued, want*7/10)
	}
	if got := time.Duration(out.Latency.Quantile(0.5)); got < latency/2 {
		t.Errorf("p50 latency %v implausibly below the %v service time", got, latency)
	}
	if out.ErrorTotal() != 0 {
		t.Errorf("unexpected errors: %v", out.Errors)
	}
}

func TestOpenLoopDropsWhenOutstandingExhausted(t *testing.T) {
	// One outstanding slot and 50ms ops against a 2.5ms schedule: almost
	// every slot must be dropped, visibly, rather than stalling the clock.
	wl := &fakeWorkload{latency: 50 * time.Millisecond}
	out, err := OpenLoop(context.Background(), wl, OpenLoopConfig{
		Rate: 400, Duration: 200 * time.Millisecond, MaxOutstanding: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Dropped == 0 {
		t.Fatalf("expected drops with MaxOutstanding=1, got none (issued %d)", out.Issued)
	}
	if out.Issued+out.Dropped != int64(400*0.2) {
		t.Errorf("issued %d + dropped %d != scheduled 80", out.Issued, out.Dropped)
	}
}

func TestClosedLoop(t *testing.T) {
	wl := &fakeWorkload{latency: 2 * time.Millisecond}
	out, err := ClosedLoop(context.Background(), wl, ClosedLoopConfig{
		Concurrency: 4, Duration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Issued == 0 || out.Units != out.Issued {
		t.Fatalf("issued %d units %d", out.Issued, out.Units)
	}
	// 4 workers × ~100 ops each; allow wide scheduling slack.
	if out.Issued < 100 {
		t.Errorf("issued %d, want ≥ 100", out.Issued)
	}
	if p50 := time.Duration(out.Latency.Quantile(0.5)); p50 < time.Millisecond || p50 > 50*time.Millisecond {
		t.Errorf("implausible p50 %v for a 2ms op", p50)
	}
}

// TestClosedLoopDrainsAtDeadline: ops in flight at the deadline finish
// and are counted, not cancelled — a cancelled op may still have done
// its work on the server.
func TestClosedLoopDrainsAtDeadline(t *testing.T) {
	const latency = 60 * time.Millisecond
	wl := &fakeWorkload{latency: latency}
	out, err := ClosedLoop(context.Background(), wl, ClosedLoopConfig{
		Concurrency: 2, Duration: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Issued != 2 || out.Units != 2 || wl.issued.Load() != 2 {
		t.Fatalf("issued %d units %d (worker calls %d), want one counted op per worker",
			out.Issued, out.Units, wl.issued.Load())
	}
	if out.ErrorTotal() != 0 {
		t.Errorf("unexpected errors: %v", out.Errors)
	}
	if out.Elapsed < latency {
		t.Errorf("elapsed %v ends before the in-flight ops (%v) finished", out.Elapsed, latency)
	}
}

func TestErrorClassification(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{errors.New("conn refused"), "transport"},
		{&codedError{code: "round_error", msg: "x"}, "round_error"},
	}
	for _, c := range cases {
		wl := &fakeWorkload{err: c.err}
		out, err := ClosedLoop(context.Background(), wl, ClosedLoopConfig{
			Concurrency: 1, Duration: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Errors[c.want] == 0 {
			t.Errorf("error %v: counts %v, want key %q", c.err, out.Errors, c.want)
		}
	}
}

func TestChooser(t *testing.T) {
	rng := randx.New(3)
	// Uniform: every key drawn, roughly evenly.
	uni := NewChooser(8, 0, rng)
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[uni.Next()]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("uniform chooser: key %d drawn %d/8000", i, c)
		}
	}
	// Skewed: rank 0 beats the tail by a wide margin.
	skew := NewChooser(64, 1.2, rng)
	counts = make([]int, 64)
	for i := 0; i < 20000; i++ {
		counts[skew.Next()]++
	}
	if counts[0] < 4*counts[32] {
		t.Errorf("skewed chooser: head %d not ≫ tail %d", counts[0], counts[32])
	}
	// Distinct draws are distinct and complete.
	scratch := make(map[int]struct{})
	got := skew.NextDistinct(16, scratch)
	if len(got) != 16 {
		t.Fatalf("NextDistinct returned %d keys, want 16", len(got))
	}
	seen := make(map[int]bool)
	for _, i := range got {
		if seen[i] || i < 0 || i >= 64 {
			t.Fatalf("bad distinct draw %v", got)
		}
		seen[i] = true
	}
	// Requesting more keys than exist returns them all.
	if got := uni.NextDistinct(99, scratch); len(got) != 8 {
		t.Errorf("NextDistinct over-ask: got %d keys, want 8", len(got))
	}
}

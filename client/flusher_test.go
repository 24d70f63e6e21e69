package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"datamarket/api"
)

// flusherStub is a deterministic /v1/price/batch server that records
// every batch it receives: price = Σ features, accepted = valuation ≥
// price. Valuations double as round IDs. It holds each of its first
// few batch requests until released, and can fail the first.
type flusherStub struct {
	failFirst   bool
	held        []chan struct{} // held[i] closes once batch i is being held
	release     []chan struct{} // closing release[i] lets batch i answer
	releaseOnce []sync.Once

	mu      sync.Mutex
	batches [][]float64 // each batch's valuations, in arrival order
}

func newFlusherStub(t *testing.T, holds int, failFirst bool) (*flusherStub, *Client) {
	t.Helper()
	st := &flusherStub{failFirst: failFirst, releaseOnce: make([]sync.Once, holds)}
	for range holds {
		st.held = append(st.held, make(chan struct{}))
		st.release = append(st.release, make(chan struct{}))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(api.VersionResponse{API: api.APIVersion, Server: "stub", GoVersion: "stub"})
	})
	mux.HandleFunc("POST /v1/price/batch", func(w http.ResponseWriter, r *http.Request) {
		var req api.MultiBatchPriceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		vals := make([]float64, len(req.Rounds))
		for i, rd := range req.Rounds {
			vals[i] = *rd.Valuation
		}
		st.mu.Lock()
		idx := len(st.batches)
		st.batches = append(st.batches, vals)
		st.mu.Unlock()
		if idx < holds {
			close(st.held[idx])
			<-st.release[idx]
		}
		if idx == 0 && st.failFirst {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.ErrorResponse{Error: api.ErrorDetail{Code: "unavailable", Message: "stub failure"}})
			return
		}
		resp := api.BatchPriceResponse{Results: make([]api.BatchRoundResult, len(req.Rounds))}
		for i, rd := range req.Rounds {
			var price float64
			for _, f := range rd.Features {
				price += f
			}
			acc := *rd.Valuation >= price
			resp.Results[i] = api.BatchRoundResult{PriceResponse: api.PriceResponse{
				Price: price, Decision: "exploratory", Accepted: &acc,
			}}
		}
		json.NewEncoder(w).Encode(resp)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { // runs first: a held handler would block ts.Close
		for i := range holds {
			st.releaseBatch(i)
		}
	})
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return st, c
}

func (st *flusherStub) releaseBatch(i int) { st.releaseOnce[i].Do(func() { close(st.release[i]) }) }

// sizes returns the round count of each batch received so far.
func (st *flusherStub) sizes() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int, len(st.batches))
	for i, b := range st.batches {
		out[i] = len(b)
	}
	return out
}

// priced counts how often the server received each round.
func (st *flusherStub) priced() map[float64]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[float64]int)
	for _, b := range st.batches {
		for _, v := range b {
			out[v]++
		}
	}
	return out
}

// stubRound prices round i through the Flusher and checks it got its
// own result back: the stub prices it at i+0.5 and, with valuation
// 1e6+i, accepts it.
func stubRound(ctx context.Context, f *Flusher, i int) error {
	resp, err := f.Price(ctx, "s", []float64{float64(i), 0.5}, 0, stubValuation(i))
	if err != nil {
		return err
	}
	if want := float64(i) + 0.5; resp.Price != want || resp.Accepted == nil || !*resp.Accepted {
		return errors.New("wrong result routed to caller")
	}
	return nil
}

func stubValuation(i int) float64 { return 1e6 + float64(i) }

// goRounds starts rounds [from, to) in their own goroutines; the
// returned channel closes when all have returned.
func goRounds(t *testing.T, ctx context.Context, f *Flusher, from, to int) <-chan struct{} {
	t.Helper()
	var wg sync.WaitGroup
	for i := from; i < to; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := stubRound(ctx, f, i); err != nil {
				t.Errorf("round %d: %v", i, err)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	return done
}

// waitBuffered blocks until n calls sit in the Flusher's forming batch.
func waitBuffered(t *testing.T, f *Flusher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		got := len(f.buf)
		f.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d calls buffered, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitDone(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never returned", what)
	}
}

// TestFlusherCoalesces: calls arriving while an exchange is in flight
// coalesce into exactly one next request, which goes out when the
// in-flight one returns, and each caller receives its own round's
// result. The caller whose exchange returned does not wait for the
// next one.
func TestFlusherCoalesces(t *testing.T) {
	const n = 16
	st, c := newFlusherStub(t, 2, false)
	f := NewFlusher(c, FlusherConfig{})
	defer f.Close()
	ctx := context.Background()

	first := goRounds(t, ctx, f, 0, 1)
	<-st.held[0]
	rest := goRounds(t, ctx, f, 1, n+1)
	waitBuffered(t, f, n)
	// The forming batch waits for the exchange in flight, not a timer.
	time.Sleep(20 * time.Millisecond)
	if got := st.sizes(); len(got) != 1 {
		t.Fatalf("batch sizes %v while the first exchange is in flight, want [1]", got)
	}
	st.releaseBatch(0)
	<-st.held[1]
	waitDone(t, first, "first call, with the next batch in flight")
	st.releaseBatch(1)
	waitDone(t, rest, "coalesced calls")
	if got := st.sizes(); len(got) != 2 || got[0] != 1 || got[1] != n {
		t.Fatalf("batch sizes %v, want [1 %d]", got, n)
	}
}

// TestFlusherFullBatch: a batch that reaches MaxBatch flushes at once,
// without waiting for the exchange in flight.
func TestFlusherFullBatch(t *testing.T) {
	const n = 8
	st, c := newFlusherStub(t, 1, false)
	f := NewFlusher(c, FlusherConfig{MaxBatch: n})
	defer f.Close()
	ctx := context.Background()

	first := goRounds(t, ctx, f, 0, 1)
	<-st.held[0]
	waitDone(t, goRounds(t, ctx, f, 1, n+1), "full batch")
	select {
	case <-first:
		t.Fatal("held call returned before its exchange was released")
	default:
	}
	st.releaseBatch(0)
	waitDone(t, first, "held call")
	if got := st.sizes(); len(got) != 2 || got[0] != 1 || got[1] != n {
		t.Fatalf("batch sizes %v, want [1 %d]", got, n)
	}
}

// TestFlusherLoneCall: a single call on an idle Flusher flushes at once;
// nobody hangs waiting for company.
func TestFlusherLoneCall(t *testing.T) {
	_, c := newBroker(t)
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2}); err != nil {
		t.Fatal(err)
	}
	f := NewFlusher(c, FlusherConfig{MaxBatch: 1024})
	defer f.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := f.Price(ctx, "s", []float64{0.3, 0.4}, -100, 1e9); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("single flusher call never flushed")
	}
}

// TestFlusherCloseWhileInFlight: Close with an exchange in flight and
// calls buffered flushes the stragglers; every caller returns and each
// round reaches the server exactly once.
func TestFlusherCloseWhileInFlight(t *testing.T) {
	const n = 5
	st, c := newFlusherStub(t, 1, false)
	f := NewFlusher(c, FlusherConfig{})
	ctx := context.Background()

	first := goRounds(t, ctx, f, 0, 1)
	<-st.held[0]
	rest := goRounds(t, ctx, f, 1, n+1)
	waitBuffered(t, f, n)
	f.Close()
	waitDone(t, rest, "buffered calls")
	st.releaseBatch(0)
	waitDone(t, first, "in-flight call")

	priced := st.priced()
	for i := 0; i <= n; i++ {
		if got := priced[stubValuation(i)]; got != 1 {
			t.Errorf("round %d reached the server %d times, want 1", i, got)
		}
	}
	if len(priced) != n+1 {
		t.Errorf("server saw %d distinct rounds, want %d", len(priced), n+1)
	}
	if _, err := f.Price(ctx, "s", []float64{1}, 0, 1); !errors.Is(err, ErrFlusherClosed) {
		t.Fatalf("Price after Close: %v, want ErrFlusherClosed", err)
	}
}

// TestFlusherFailedExchange: a failed exchange fails only the callers
// whose rounds it carried; the batch formed behind it still prices.
func TestFlusherFailedExchange(t *testing.T) {
	const n = 4
	st, c := newFlusherStub(t, 1, true)
	f := NewFlusher(c, FlusherConfig{})
	defer f.Close()
	ctx := context.Background()

	firstErr := make(chan error, 1)
	go func() { firstErr <- stubRound(ctx, f, 0) }()
	<-st.held[0]
	rest := goRounds(t, ctx, f, 1, n+1)
	waitBuffered(t, f, n)
	st.releaseBatch(0)
	select {
	case err := <-firstErr:
		if err == nil {
			t.Error("caller of the failed exchange saw no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("caller of the failed exchange never returned")
	}
	waitDone(t, rest, "calls behind the failed exchange")
	if got := st.sizes(); len(got) != 2 || got[1] != n {
		t.Fatalf("batch sizes %v, want [1 %d]", got, n)
	}
}

// TestFlusherCallerCtxExpiry: buffered callers whose ctx expires get
// ctx.Err() at once — the first call of the forming batch included, so
// sending that batch passes to someone else — and their rounds still
// price.
func TestFlusherCallerCtxExpiry(t *testing.T) {
	st, c := newFlusherStub(t, 1, false)
	f := NewFlusher(c, FlusherConfig{})
	defer f.Close()

	first := goRounds(t, context.Background(), f, 0, 1)
	<-st.held[0]
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := stubRound(ctx, f, i); !errors.Is(err, context.Canceled) {
				t.Errorf("round %d: %v, want context.Canceled", i, err)
			}
		}()
		waitBuffered(t, f, i) // round 1 leads the forming batch
	}
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitDone(t, done, "canceled callers")
	st.releaseBatch(0)
	waitDone(t, first, "in-flight call")

	deadline := time.Now().Add(5 * time.Second)
	for {
		p := st.priced()
		if p[stubValuation(1)] == 1 && p[stubValuation(2)] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned rounds never priced: %v", p)
		}
		time.Sleep(time.Millisecond)
	}
	if got := st.sizes(); len(got) != 2 || got[1] != 2 {
		t.Fatalf("batch sizes %v, want [1 2]", got)
	}
}

// TestFlusherAgainstBroker prices a real workload through the Flusher
// against brokerd and checks every round landed: the stream's counters
// account for all calls.
func TestFlusherAgainstBroker(t *testing.T) {
	const calls = 96
	_, c := newBroker(t)
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2, Horizon: calls}); err != nil {
		t.Fatal(err)
	}
	f := NewFlusher(c, FlusherConfig{MaxBatch: 16})
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := []float64{0.1 + float64(i%7)/10, 0.2 + float64(i%5)/10}
			if _, err := f.Price(ctx, "s", x, -100, 1e9); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	f.Close()
	stats, err := c.Stats(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters.Rounds != calls {
		t.Fatalf("mechanism saw %d rounds, want %d", stats.Counters.Rounds, calls)
	}
	if stats.Regret.Rounds != calls {
		t.Fatalf("tracker saw %d rounds, want %d", stats.Regret.Rounds, calls)
	}
}

// TestFlusherClampsMaxBatch: a MaxBatch beyond the server's wire limit
// is clamped instead of dooming every coalesced caller to a 400.
func TestFlusherClampsMaxBatch(t *testing.T) {
	_, c := newBroker(t)
	f := NewFlusher(c, FlusherConfig{MaxBatch: api.MaxBatchRounds * 2})
	defer f.Close()
	if f.cfg.MaxBatch != api.MaxBatchRounds {
		t.Fatalf("MaxBatch %d, want clamped to %d", f.cfg.MaxBatch, api.MaxBatchRounds)
	}
}

// TestFlusherClosed: Price after Close fails fast.
func TestFlusherClosed(t *testing.T) {
	_, c := newBroker(t)
	f := NewFlusher(c, FlusherConfig{})
	f.Close()
	if _, err := f.Price(context.Background(), "s", []float64{1}, 0, 1); !errors.Is(err, ErrFlusherClosed) {
		t.Fatalf("err = %v, want ErrFlusherClosed", err)
	}
}

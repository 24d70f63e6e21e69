package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"datamarket/api"
)

// Flusher defaults.
const (
	DefaultFlusherMaxBatch = 256
	DefaultFlushTimeout    = 30 * time.Second
)

// ErrFlusherClosed: Price was called after Close.
var ErrFlusherClosed = errors.New("client: flusher is closed")

// FlusherConfig tunes the coalescing.
type FlusherConfig struct {
	// MaxBatch flushes as soon as this many rounds are buffered
	// (default 256). Values above api.MaxBatchRounds are clamped to it —
	// the server rejects larger batches whole, which would fail every
	// coalesced caller at once.
	MaxBatch int
	// FlushTimeout bounds one flush's HTTP exchange (default 30s). A
	// batch aggregates many callers, so it cannot ride any single
	// caller's context.
	FlushTimeout time.Duration
}

// Flusher coalesces concurrent Price calls into multi-stream batch
// requests. Callers use it exactly like Client.Price — one call, one
// result — while the wire sees /v1/price/batch requests carrying up to
// MaxBatch rounds: the per-request JSON/dispatch overhead that
// dominates per-round HTTP serving is amortized transparently.
//
// The in-flight exchange is the accumulation window, as in the WAL's
// group commit: a call that finds no flush in flight sends its round at
// once; calls that arrive while one is in flight form the next batch,
// which its first call sends as soon as the in-flight exchange returns.
// A batch that reaches MaxBatch flushes at once regardless. Nothing
// waits on a timer, so a lone caller pays one exchange and no linger.
// Rounds for the same stream keep their submission order within a
// batch (the server prices a stream's rounds in request order).
type Flusher struct {
	c   *Client
	cfg FlusherConfig

	mu     sync.Mutex
	buf    []*flushCall // the forming batch; non-empty only while busy
	busy   bool         // a batch from send is in flight or handed to its sender
	closed bool
}

// flushCall is one caller's round: its wire form plus the channels the
// caller blocks on.
type flushCall struct {
	round api.MultiBatchRound
	// lead is set on the first call of a forming batch only; it receives
	// that batch, detached, when the in-flight exchange returns.
	lead chan []*flushCall
	done chan struct{}
	res  api.BatchRoundResult
	err  error
}

// NewFlusher builds a Flusher over the client. Close it when done to
// flush stragglers.
func NewFlusher(c *Client, cfg FlusherConfig) *Flusher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultFlusherMaxBatch
	}
	if cfg.MaxBatch > api.MaxBatchRounds {
		cfg.MaxBatch = api.MaxBatchRounds
	}
	if cfg.FlushTimeout <= 0 {
		cfg.FlushTimeout = DefaultFlushTimeout
	}
	return &Flusher{c: c, cfg: cfg}
}

// Price prices one full round on the stream, riding whatever batch is
// forming. It blocks until the round's batch has flushed — at most the
// exchange already in flight plus its own — or ctx is done.
//
// A ctx expiry abandons only the wait: the round is already committed
// to its batch and will still price on the server — like any pricing
// call that times out mid-flight, the mechanism may consume the round.
func (f *Flusher) Price(ctx context.Context, streamID string, features []float64, reserve, valuation float64) (api.PriceResponse, error) {
	call := &flushCall{
		round: api.MultiBatchRound{
			StreamID:  streamID,
			Features:  features,
			Reserve:   reserve,
			Valuation: &valuation,
		},
		done: make(chan struct{}),
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return api.PriceResponse{}, ErrFlusherClosed
	}
	switch {
	case !f.busy:
		f.busy = true
		f.mu.Unlock()
		f.send([]*flushCall{call})
	case len(f.buf)+1 >= f.cfg.MaxBatch:
		f.buf = append(f.buf, call)
		batch := f.take()
		f.mu.Unlock()
		f.flush(batch)
	default:
		if len(f.buf) == 0 {
			call.lead = make(chan []*flushCall, 1)
		}
		f.buf = append(f.buf, call)
		f.mu.Unlock()
	}

	select {
	case batch := <-call.lead:
		f.send(batch) // call is batch[0], so its result is in on return
	case <-call.done:
	case <-ctx.Done():
		if call.lead != nil {
			// The batch still goes out when its turn comes.
			go f.awaitLead(call)
		}
		return api.PriceResponse{}, ctx.Err()
	}
	if call.err != nil {
		return api.PriceResponse{}, call.err
	}
	if call.res.Error != "" {
		return api.PriceResponse{}, fmt.Errorf("client: round failed: %s", call.res.Error)
	}
	return call.res.PriceResponse, nil
}

// awaitLead stands in for a leading caller that stopped waiting: it
// sends the caller's batch when handed it, unless the batch already
// went out full or at Close.
func (f *Flusher) awaitLead(call *flushCall) {
	select {
	case batch := <-call.lead:
		f.send(batch)
	case <-call.done:
	}
}

// send flushes a batch, then passes the turn on: the batch formed
// meanwhile, if any, goes to its first call to send; otherwise the
// Flusher is idle again. Full batches bypass send and never hold the
// turn.
func (f *Flusher) send(batch []*flushCall) {
	f.flush(batch)
	f.mu.Lock()
	next := f.take()
	f.busy = len(next) > 0
	f.mu.Unlock()
	if len(next) > 0 {
		next[0].lead <- next
	}
}

// take detaches the forming batch. Callers hold f.mu.
func (f *Flusher) take() []*flushCall {
	batch := f.buf
	f.buf = nil
	return batch
}

// flush sends one batch and routes each result (or the batch-wide
// error) to its caller.
func (f *Flusher) flush(batch []*flushCall) {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.FlushTimeout)
	defer cancel()
	rounds := make([]api.MultiBatchRound, len(batch))
	for i, call := range batch {
		rounds[i] = call.round
	}
	results, err := f.c.PriceMulti(ctx, rounds)
	for i, call := range batch {
		switch {
		case err != nil:
			call.err = err
		case i < len(results):
			call.res = results[i]
		default:
			call.err = fmt.Errorf("client: batch response has %d results for %d rounds",
				len(results), len(batch))
		}
		close(call.done)
	}
}

// Close flushes any buffered rounds and rejects future Price calls.
// In-flight callers still receive their results.
func (f *Flusher) Close() {
	f.mu.Lock()
	f.closed = true
	batch := f.take()
	f.mu.Unlock()
	if len(batch) > 0 {
		f.flush(batch)
	}
}

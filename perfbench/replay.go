package main

import (
	"fmt"
	"time"

	"datamarket/api"
	"datamarket/api/binary"
	"datamarket/internal/linalg"
	"datamarket/internal/market"
	"datamarket/internal/pricing"
	"datamarket/internal/privacy"
	"datamarket/internal/server"
)

// The replays re-drive the traced ops of one measure cycle, in start
// order and on one goroutine, through the public functions of the
// layers on a fresh stack. What they time is busy time with no lock or
// CPU contention; server.wait_us is the served handler time beyond it,
// taken over the replayed ops.

// codecTimer times api/binary on an op's own request message.
type codecTimer struct {
	frame []byte
	dec   binary.Decoder
}

// time encodes msg and decodes the frame into got, returning both
// durations in ns.
func (c *codecTimer) time(msg, got any) (enc, dec float64, err error) {
	t0 := time.Now()
	frame, err := binary.Append(c.frame[:0], msg)
	t1 := time.Now()
	if err != nil {
		return 0, 0, err
	}
	c.frame = frame
	err = c.dec.DecodeInto(frame, got)
	return float64(t1.Sub(t0)), float64(time.Since(t1)), err
}

func createStreams(reg *server.Registry, ids []string, req func(string) api.CreateStreamRequest) ([]*server.Stream, error) {
	out := make([]*server.Stream, len(ids))
	for i, id := range ids {
		st, err := reg.Create(req(id))
		if err != nil {
			return nil, fmt.Errorf("replay: creating stream %q: %w", id, err)
		}
		out[i] = st
	}
	return out, nil
}

func (s *impression) replay(ops []tracedOp) (*replayResult, error) {
	streams, err := createStreams(server.NewRegistry(0), s.streams, s.createReq)
	if err != nil {
		return nil, err
	}
	r := newReplayResult()
	var ct codecTimer
	var got api.BatchPriceRequest
	msg := make([]api.BatchPriceRound, s.sz.batch)
	rounds := make([]pricing.BatchRound, s.sz.batch)
	vals := make([]float64, s.sz.batch)
	for _, o := range ops {
		if o.kind != opWrite {
			continue
		}
		op := s.writes[o.n%seqLen]
		s.rounds(msg, op)
		enc, dec, err := ct.time(&api.BatchPriceRequest{Rounds: msg}, &got)
		if err != nil {
			return nil, err
		}
		for k, rd := range msg {
			rounds[k] = pricing.BatchRound{X: linalg.Vector(rd.Features)}
			vals[k] = *rd.Valuation
		}
		t0 := time.Now()
		out := streams[op.stream].PriceBatch(rounds, vals)
		busy := float64(time.Since(t0))
		for _, o := range out {
			if o.Err != nil {
				return nil, fmt.Errorf("replay: pricing round: %w", o.Err)
			}
		}
		r.encode = append(r.encode, enc)
		r.decode = append(r.decode, dec)
		r.round = append(r.round, busy/float64(len(rounds)))
		r.busy[o.op] = dec + busy
	}
	return r, nil
}

func (s *ratings) replay(ops []tracedOp) (*replayResult, error) {
	m, err := server.NewMarketRegistry().Create(s.create)
	if err != nil {
		return nil, fmt.Errorf("replay: creating market: %w", err)
	}
	b := m.Broker()
	r := newReplayResult()
	var ct codecTimer
	var got api.TradeBatchRequest
	trades, dense, prev := s.newDense()
	queries := make([]market.Query, len(trades))
	qctx := new(market.QuoteContext)
	var settled int64
	for _, o := range ops {
		if o.kind == opRead {
			t0 := time.Now()
			b.LedgerSlice(ledgerOffset(settled), ledgerPage)
			r.ledger = append(r.ledger, float64(time.Since(t0)))
			continue
		}
		s.denseTrades(trades, dense, prev, o.n)
		enc, dec, err := ct.time(&api.TradeBatchRequest{Trades: trades}, &got)
		if err != nil {
			return nil, err
		}
		var build float64
		for k, t := range trades {
			t0 := time.Now()
			q, err := privacy.NewLinearQueryShared(t.Weights, t.NoiseVariance)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("replay: building query: %w", err)
			}
			// PrepareInto reads only the broker's fixed config, so timing
			// it beside the trade leaves the books untouched.
			if err := b.PrepareInto(qctx, q); err != nil {
				return nil, fmt.Errorf("replay: preparing quote: %w", err)
			}
			r.prepare = append(r.prepare, float64(time.Since(t1)))
			r.queryBuild = append(r.queryBuild, float64(t1.Sub(t0)))
			build += float64(t1.Sub(t0))
			queries[k] = market.Query{Q: q, Valuation: t.Valuation}
		}
		t0 := time.Now()
		outs := b.TradeBatchOutcomes(queries)
		busy := float64(time.Since(t0))
		for _, o := range outs {
			if o.Err != nil {
				return nil, fmt.Errorf("replay: trade: %w", o.Err)
			}
		}
		settled += int64(len(outs))
		r.encode = append(r.encode, enc)
		r.decode = append(r.decode, dec)
		r.tradeBatch = append(r.tradeBatch, busy)
		r.busy[o.op] = dec + build + busy
	}
	return r, nil
}

func (s *accommodation) replay(ops []tracedOp) (*replayResult, error) {
	streams, err := createStreams(server.NewRegistry(0), s.streams, s.createReq)
	if err != nil {
		return nil, err
	}
	r := newReplayResult()
	var ct codecTimer
	var got api.MultiBatchPriceRequest
	round := make([]pricing.BatchRound, 1)
	val := make([]float64, 1)
	for _, o := range ops {
		if o.kind != opWrite {
			continue
		}
		l := &s.listing[s.writes[o.n%seqLen]]
		v := l.valuation
		msg := &api.MultiBatchPriceRequest{Rounds: []api.MultiBatchRound{{
			StreamID: s.streams[l.stream], Features: l.features, Reserve: l.reserve, Valuation: &v,
		}}}
		enc, dec, err := ct.time(msg, &got)
		if err != nil {
			return nil, err
		}
		round[0] = pricing.BatchRound{X: linalg.Vector(l.features), Reserve: l.reserve}
		val[0] = v
		t0 := time.Now()
		out := streams[l.stream].PriceBatch(round, val)
		busy := float64(time.Since(t0))
		if out[0].Err != nil {
			return nil, fmt.Errorf("replay: pricing round: %w", out[0].Err)
		}
		r.encode = append(r.encode, enc)
		r.decode = append(r.decode, dec)
		r.round = append(r.round, busy)
		r.busy[o.op] = dec + busy
	}
	return r, nil
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"datamarket/api"
	"datamarket/api/binary"
	"datamarket/internal/server"
)

// The traced run records spans from outside the program: around each
// op the benchmark issues (client), in an http.RoundTripper (wire), in
// a middleware around server.Server.Handler (server) and in a decorator
// around the store.Store (store). Spans of one op share its op ID; the
// request carries it in hdrOp and the response echoes it.
const (
	hdrOp      = "X-Bench-Op"
	hdrSpan    = "X-Bench-Span"
	hdrHandler = "X-Bench-Handler-Ns"
)

type span struct {
	Name   string `json:"name"`
	Route  string `json:"route,omitempty"` // request path (exchange) or mux pattern (handler)
	Op     uint64 `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Status int    `json:"status,omitempty"`
	// Client calls: op kind, input index and measure cycle.
	Kind  opKind `json:"kind"`
	N     uint64 `json:"n"`
	Cycle int32  `json:"cycle"`
	// Exchanges: body sizes.
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

type flushKey struct {
	stream string
	val    float64
}

// tracer keeps every span in memory. A nil *tracer records nothing.
type tracer struct {
	epoch      time.Time
	nextOp     atomic.Uint64
	cycle      atomic.Int32 // the measure cycle ops now run in
	mismatches atomic.Int64 // responses without their op ID or handler time

	mu        sync.Mutex
	spans     []span
	handlerOf map[uint64]int32     // op → its latest handler span
	streamOp  map[string]uint64    // lifecycle stream ID → op that wrote it
	flushWait map[flushKey][]int32 // Flusher calls whose exchange has not been seen
	links     map[int32]int32      // Flusher call span → the exchange that carried it
	ckpt      int32                // running checkpoint pass span, or -1
	passes    []server.CheckpointStats
}

func newTracer() *tracer {
	return &tracer{
		epoch:     time.Now(),
		spans:     make([]span, 0, 1<<16),
		handlerOf: make(map[uint64]int32),
		streamOp:  make(map[string]uint64),
		flushWait: make(map[flushKey][]int32),
		links:     make(map[int32]int32),
		ckpt:      -1,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginLocked appends a span; callers hold t.mu.
func (t *tracer) beginLocked(s span) int32 {
	s.Start = t.now()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) begin(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(s)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

type opCtxKey struct{}

type opCtx struct {
	tr   *tracer
	op   uint64
	span int32
}

func opFrom(ctx context.Context) *opCtx {
	oc, _ := ctx.Value(opCtxKey{}).(*opCtx)
	return oc
}

// beginCall opens the client span of one op and returns the context
// that carries its op ID to the wire.
func (t *tracer) beginCall(ctx context.Context, kind opKind, n uint64) (context.Context, int32) {
	if t == nil {
		return ctx, -1
	}
	op := t.nextOp.Add(1)
	i := t.begin(span{Name: "client.call", Op: op, Parent: -1, Kind: kind, N: n, Cycle: t.cycle.Load()})
	return context.WithValue(ctx, opCtxKey{}, &opCtx{tr: t, op: op, span: i}), i
}

// setCycle marks the ops begun from now on as measure cycle i's.
func (t *tracer) setCycle(i int) {
	if t != nil {
		t.cycle.Store(int32(i))
	}
}

// noteStream records that the op in ctx writes stream id, so the
// store spans of that write join the op.
func noteStream(ctx context.Context, id string) {
	if oc := opFrom(ctx); oc != nil {
		oc.tr.mu.Lock()
		oc.tr.streamOp[id] = oc.op
		oc.tr.mu.Unlock()
	}
}

// noteFlush registers a Flusher call, so the exchange that carries its
// round can be matched to it.
func noteFlush(ctx context.Context, stream string, val float64) {
	if oc := opFrom(ctx); oc != nil {
		k := flushKey{stream, val}
		oc.tr.mu.Lock()
		oc.tr.flushWait[k] = append(oc.tr.flushWait[k], oc.span)
		oc.tr.mu.Unlock()
	}
}

// storeSpan opens a store span for a write of stream id, joined to the
// op and handler that wrote it.
func (t *tracer) storeSpan(name, id string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	op := t.streamOp[id]
	parent := int32(-1)
	if h, ok := t.handlerOf[op]; ok && op != 0 {
		parent = h
	}
	return t.beginLocked(span{Name: name, Op: op, Parent: parent})
}

// checkpointChild opens a span under the running checkpoint pass.
func (t *tracer) checkpointChild(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var op uint64
	if t.ckpt >= 0 {
		op = t.spans[t.ckpt].Op
	}
	return t.beginLocked(span{Name: name, Op: op, Parent: t.ckpt})
}

// checkpoint runs one persister pass, traced when t is not nil.
func (t *tracer) checkpoint(p *server.Persister) {
	if t == nil {
		p.Checkpoint()
		return
	}
	t.mu.Lock()
	t.ckpt = t.beginLocked(span{Name: "persist.checkpoint", Op: t.nextOp.Add(1), Parent: -1})
	i := t.ckpt
	t.mu.Unlock()
	stats := p.Checkpoint()
	t.end(i)
	t.mu.Lock()
	t.ckpt = -1
	t.passes = append(t.passes, stats)
	t.mu.Unlock()
}

// middleware records the handler span of every request that carries an
// op ID and stamps the op ID and the handler's time to its first
// response byte on the response.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseUint(r.Header.Get(hdrOp), 10, 64)
		if op == 0 {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 32)
		t.mu.Lock()
		i := t.beginLocked(span{Name: "server.handler", Op: op, Parent: int32(parent)})
		t.handlerOf[op] = i
		t.mu.Unlock()
		sw := &stampWriter{ResponseWriter: w, op: r.Header.Get(hdrOp), start: time.Now()}
		next.ServeHTTP(sw, r)
		now := t.now()
		t.mu.Lock()
		t.spans[i].End = now
		t.spans[i].Route = r.Pattern
		t.spans[i].Status = sw.status
		t.mu.Unlock()
	})
}

type stampWriter struct {
	http.ResponseWriter
	op     string
	start  time.Time
	status int
}

func (w *stampWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		h := w.Header()
		h.Set(hdrOp, w.op)
		h.Set(hdrHandler, strconv.FormatInt(int64(time.Since(w.start)), 10))
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *stampWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// tracedTransport records one exchange span per request of a traced
// op, from sending the request to the end of the response body.
type tracedTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tr
	var op uint64
	parent := int32(-1)
	var calls []int32
	if oc := opFrom(req.Context()); oc != nil {
		op, parent = oc.op, oc.span
	} else if req.URL.Path == "/v1/price/batch" {
		// A Flusher batch rides its own context; match its rounds to
		// the calls that submitted them.
		calls = tr.matchFlush(req)
		if len(calls) > 0 {
			parent = calls[0]
			tr.mu.Lock()
			op = tr.spans[parent].Op
			tr.mu.Unlock()
		}
	}
	if op == 0 {
		return t.next.RoundTrip(req)
	}
	tr.mu.Lock()
	i := tr.beginLocked(span{Name: "wire.exchange", Route: req.URL.Path, Op: op, Parent: parent, ReqBytes: req.ContentLength})
	for _, c := range calls {
		tr.links[c] = i
	}
	tr.mu.Unlock()
	out := req.Clone(req.Context())
	opStr := strconv.FormatUint(op, 10)
	out.Header.Set(hdrOp, opStr)
	out.Header.Set(hdrSpan, strconv.Itoa(int(i)))
	resp, err := t.next.RoundTrip(out)
	if err != nil {
		tr.end(i)
		return nil, err
	}
	if resp.Header.Get(hdrOp) != opStr || resp.Header.Get(hdrHandler) == "" {
		tr.mismatches.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, tr: tr, span: i}
	return resp, nil
}

// matchFlush decodes a Flusher batch and pops the waiting call of each
// round, in submission order.
func (t *tracer) matchFlush(req *http.Request) []int32 {
	if req.GetBody == nil {
		return nil
	}
	body, err := req.GetBody()
	if err != nil {
		return nil
	}
	raw, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		return nil
	}
	var m api.MultiBatchPriceRequest
	if binary.Decode(raw, &m) != nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	calls := make([]int32, 0, len(m.Rounds))
	for _, rd := range m.Rounds {
		if rd.Valuation == nil {
			continue
		}
		k := flushKey{rd.StreamID, *rd.Valuation}
		if q := t.flushWait[k]; len(q) > 0 {
			calls = append(calls, q[0])
			if len(q) == 1 {
				delete(t.flushWait, k)
			} else {
				t.flushWait[k] = q[1:]
			}
		}
	}
	return calls
}

// countingBody ends its exchange span when the body is drained or
// closed, recording the bytes read.
type countingBody struct {
	io.ReadCloser
	tr   *tracer
	span int32
	n    int64
	done bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *countingBody) finish() {
	if b.done {
		return
	}
	b.done = true
	now := b.tr.now()
	b.tr.mu.Lock()
	b.tr.spans[b.span].End = now
	b.tr.spans[b.span].RespBytes = b.n
	b.tr.mu.Unlock()
}

// tracedOp is one client op in start order, the input of a replay.
type tracedOp struct {
	op    uint64
	kind  opKind
	n     uint64
	start int64
}

// cycleOps lists the traced client ops of each measure cycle by start
// time; each cycle ran on a broker of its own, so each is replayed on
// a fresh stack.
func (t *tracer) cycleOps() [][]tracedOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	var byCycle [][]tracedOp
	for _, s := range t.spans {
		if s.Name != "client.call" {
			continue
		}
		for int(s.Cycle) >= len(byCycle) {
			byCycle = append(byCycle, nil)
		}
		byCycle[s.Cycle] = append(byCycle[s.Cycle], tracedOp{op: s.Op, kind: s.Kind, n: s.N, start: s.Start})
	}
	for _, ops := range byCycle {
		sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	}
	return byCycle
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// routes names the routes whose request and error counts are reported.
var routes = []struct{ pattern, name string }{
	{"POST /v1/streams/{id}/price/batch", "price_batch"},
	{"POST /v1/price/batch", "price_multi"},
	{"POST /v1/markets/{id}/trade/batch", "trade_batch"},
	{"GET /v1/markets/{id}/ledger", "ledger"},
	{"GET /v1/markets/{id}/stats", "market_stats"},
	{"GET /v1/streams/{id}/stats", "stream_stats"},
	{"POST /v1/streams", "stream_create"},
	{"DELETE /v1/streams/{id}", "stream_delete"},
}

// replayResult holds the busy times of the replay, in ns.
type replayResult struct {
	busy                                    map[uint64]float64 // op → codec decode + layer work
	encode, decode, round                   []float64
	queryBuild, prepare, tradeBatch, ledger []float64
}

func newReplayResult() *replayResult { return &replayResult{busy: make(map[uint64]float64)} }

// merge adds o's busy times to r.
func (r *replayResult) merge(o *replayResult) {
	for op, b := range o.busy {
		r.busy[op] = b
	}
	r.encode = append(r.encode, o.encode...)
	r.decode = append(r.decode, o.decode...)
	r.round = append(r.round, o.round...)
	r.queryBuild = append(r.queryBuild, o.queryBuild...)
	r.prepare = append(r.prepare, o.prepare...)
	r.tradeBatch = append(r.tradeBatch, o.tradeBatch...)
	r.ledger = append(r.ledger, o.ledger...)
}

// layers computes the per-layer metrics from the spans and the replay.
// Op-level figures use the write ops, the ops latency_* measures.
func (t *tracer) layers(rep *replayResult) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spans
	callers := make(map[int32][]int32) // exchange → client calls it carried
	handler := make(map[int32]int32)   // exchange → its handler span
	exchDur := make(map[int32]float64) // client call → time in its exchanges
	var calls, exchanges int
	var callUs, selfUs, transitUs, handlerUs, waitUs, putUs, ticketUs, ckptUs []float64
	var reqBytes, respBytes []float64
	var flushRounds, flushReqs float64
	reqs := make(map[string]float64)
	errs := make(map[string]float64)
	var broken int // spans of an op that do not reach its client call
	for i := range sp {
		s := &sp[i]
		if s.Op == 0 {
			continue
		}
		if s.Name != "client.call" && s.Name != "persist.checkpoint" && (s.Parent < 0 || sp[s.Parent].Op != s.Op) {
			broken++
		}
		switch s.Name {
		case "client.call":
			calls++
		case "wire.exchange":
			exchanges++
			if s.Parent >= 0 {
				callers[int32(i)] = append(callers[int32(i)], s.Parent)
			}
		case "server.handler":
			if s.Parent >= 0 {
				handler[s.Parent] = int32(i)
			}
			reqs[s.Route]++
			if s.Status >= 400 {
				errs[s.Route]++
			}
		case "store.put":
			putUs = append(putUs, s.dur()/1e3)
		case "store.ticket_wait":
			ticketUs = append(ticketUs, s.dur()/1e3)
		case "persist.checkpoint":
			ckptUs = append(ckptUs, s.dur()/1e3)
		}
	}
	for c, e := range t.links {
		if sp[e].Parent != c {
			callers[e] = append(callers[e], c)
		}
	}
	for e, cs := range callers {
		for _, c := range cs {
			exchDur[c] += sp[e].dur()
		}
		if sp[e].Route == "/v1/price/batch" {
			flushRounds += float64(len(cs))
			flushReqs++
		}
		if len(cs) == 0 || sp[cs[0]].Kind != opWrite {
			continue
		}
		reqBytes = append(reqBytes, float64(sp[e].ReqBytes))
		respBytes = append(respBytes, float64(sp[e].RespBytes))
		if h, ok := handler[e]; ok {
			transitUs = append(transitUs, (sp[e].dur()-sp[h].dur())/1e3)
			handlerUs = append(handlerUs, sp[h].dur()/1e3)
			var busy float64
			replayed := true
			for _, c := range cs {
				b, ok := rep.busy[sp[c].Op]
				busy += b
				replayed = replayed && ok
			}
			if replayed {
				waitUs = append(waitUs, (sp[h].dur()-busy)/1e3)
			}
		}
	}
	for i := range sp {
		s := &sp[i]
		if s.Name == "client.call" && s.Op != 0 && s.Kind == opWrite {
			callUs = append(callUs, s.dur()/1e3)
			selfUs = append(selfUs, (s.dur()-exchDur[int32(i)])/1e3)
		}
	}
	var persisted float64
	for _, p := range t.passes {
		persisted += float64(p.Persisted)
	}
	m := map[string]float64{
		"client.call_us":                    median(callUs),
		"client.self_us":                    median(selfUs),
		"client.flusher_rounds_per_request": share(flushRounds, flushReqs),
		"client.exchanges_per_call":         share(float64(exchanges), float64(calls)),
		"wire.request_bytes":                mean(reqBytes),
		"wire.response_bytes":               mean(respBytes),
		"wire.transit_us":                   median(transitUs),
		"server.handler_us":                 median(handlerUs),
		"server.wait_us":                    median(waitUs),
		"codec.encode_us":                   median(rep.encode) / 1e3,
		"codec.decode_us":                   median(rep.decode) / 1e3,
		"pricing.round_us":                  median(rep.round) / 1e3,
		"market.query_build_us":             median(rep.queryBuild) / 1e3,
		"market.prepare_us":                 median(rep.prepare) / 1e3,
		"market.trade_batch_us":             median(rep.tradeBatch) / 1e3,
		"market.ledger_read_us":             median(rep.ledger) / 1e3,
		"store.put_us":                      median(putUs),
		"store.ticket_wait_us":              median(ticketUs),
		"persist.checkpoint_us":             median(ckptUs),
		"persist.streams_per_pass":          share(persisted, float64(len(t.passes))),
		"trace.broken_links":                float64(broken) + float64(t.mismatches.Load()),
	}
	for _, r := range routes {
		m["server.requests."+r.name] = reqs[r.pattern]
		m["server.errors."+r.name] = errs[r.pattern]
	}
	return m
}

// median is the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// percentile interpolates the p-quantile of sorted values, refusing
// one with fewer than ten samples beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if beyond := float64(n) * (1 - p); beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %.0f beyond it, fewer than 10", p*100, n, math.Floor(beyond))
	}
	pos := p * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return sorted[n-1], nil
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo]), nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"datamarket/api"
	"datamarket/client"
	"datamarket/internal/dataset"
	"datamarket/internal/loadgen"
	"datamarket/internal/randx"
)

// opKind is the kind of one benchmark operation. Each kind runs as its
// own open-loop arrival process, so write and read latencies are each
// measured from their own schedule.
type opKind int

const (
	opWrite opKind = iota // pricing rounds or trades: latency_* and throughput
	opRead                // stats and ledger reads: read_latency_*
	opLife                // stream create + retire (accommodation-durable)
	numKinds
)

var kindNames = [numKinds]string{"write", "read", "life"}

// corpusSeed generates each workload's dataset: the Avazu, MovieLens
// and Airbnb corpora are fixed, like the real ones, and a run's --seed
// chooses what is drawn from them and in which order.
const corpusSeed = 20200420

// seqLen is the length of each pre-generated op input sequence. Ops
// cycle through it, so a run that issues more ops of a kind than this
// repeats inputs; a 30-second full-size run issues up to ~14k.
const seqLen = 1 << 14

// sizes fixes the shape of the generated inputs; rates the open-loop
// arrival rate per op kind in ops/s.
type sizes struct {
	batch                        int // rounds or trades per batched call
	impStreams, impDim, impPool  int
	owners, support, queryPool   int
	listings, lifeWindow         int
	impRates, ratRates, accRates [numKinds]float64
}

// fullSizes are the benchmark's shapes. The write rates are about a
// quarter of the closed-loop capacity measured on a 2-CPU host
// (impression-batch ~340 batches/s, ratings-market ~120 batches/s,
// accommodation-durable ~700 rounds/s) and stay fixed so runs on any
// host compare. A shared host's speed can halve for minutes at a time;
// at a quarter of capacity the open loops then still keep up, and
// their latencies grow with the host's slowdown instead of running
// away. The rates of one workload are coprime: commensurate schedules
// would send each read at the same phase of the write schedule, and
// whether it waits behind a write would then depend on the start
// offset of the loops.
var fullSizes = sizes{
	batch:      64,
	impStreams: 32, impDim: 128, impPool: 4096,
	owners: 10000, support: 64, queryPool: 1024,
	listings: 2000, lifeWindow: 8,
	impRates: [numKinds]float64{opWrite: 83, opRead: 149},
	ratRates: [numKinds]float64{opWrite: 31, opRead: 53},
	accRates: [numKinds]float64{opWrite: 173, opRead: 41, opLife: 11},
}

// tinySizes keep the package test short; over a one-second open loop
// the rates still give every percentile ten samples beyond it.
var tinySizes = sizes{
	batch:      8,
	impStreams: 4, impDim: 16, impPool: 256,
	owners: 200, support: 8, queryPool: 64,
	listings: 120, lifeWindow: 2,
	impRates: [numKinds]float64{opWrite: 150, opRead: 149},
	ratRates: [numKinds]float64{opWrite: 150, opRead: 149},
	accRates: [numKinds]float64{opWrite: 150, opRead: 149, opLife: 23},
}

// scenario is one benchmark workload. Its inputs are generated from the
// seed when it is built, before anything is timed; provision creates
// the server-side state through the SDK and may run several times.
type scenario interface {
	// durable reports whether the broker runs over a journal.
	durable() bool
	// rate is the open-loop arrival rate of kind k; 0 leaves it out.
	rate(k opKind) float64
	// closedKind is the kind of the closed loop's n-th op (a fixed mix).
	closedKind(n uint64) opKind
	provision(ctx context.Context, c *client.Client) error
	newWorker(c *client.Client) opWorker
	// regretRatio is the server-reported cumulative regret over
	// cumulative value.
	regretRatio(ctx context.Context, c *client.Client) (float64, error)
	// check compares the server's books with units, the rounds or
	// trades the client counted, and returns every mismatch.
	check(ctx context.Context, c *client.Client, units int64) error
	// served reads the per-layer counters the server reports.
	served(ctx context.Context, c *client.Client) (map[string]float64, error)
	// replay re-drives the traced ops single-threaded on a fresh stack.
	replay(ops []tracedOp) (*replayResult, error)
}

// opWorker issues op n of a kind; n indexes the kind's pre-generated
// input sequence. A worker is used by one goroutine at a time.
type opWorker interface {
	issue(ctx context.Context, kind opKind, n uint64) (units int, err error)
}

func newScenario(name string, seed uint64, sz sizes) (scenario, error) {
	switch name {
	case "impression-batch":
		return newImpression(seed, sz)
	case "ratings-market":
		return newRatings(seed, sz)
	case "accommodation-durable":
		return newAccommodation(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (want impression-batch, ratings-market or accommodation-durable)", name)
}

// errShortBatch marks a batch response whose result count differs from
// the items sent.
var errShortBatch = errors.New("batch returned a different number of results than items")

// batchUnits counts the successful items of a batch response and
// reports per-item failures and short responses as errors.
func batchUnits[T any](results []T, want int, itemErr func(T) string, short *atomic.Int64) (int, error) {
	if len(results) != want {
		short.Add(1)
		return 0, fmt.Errorf("%w: %d results for %d items", errShortBatch, len(results), want)
	}
	units := 0
	for _, r := range results {
		if itemErr(r) == "" {
			units++
		}
	}
	if units != want {
		return units, fmt.Errorf("%d/%d items failed in batch", want-units, want)
	}
	return units, nil
}

// streamTotals sums /stats over streams.
type streamTotals struct {
	rounds, skips, cuts, counted int
	regret, value                float64
}

func sumStreamStats(ctx context.Context, c *client.Client, ids []string) (streamTotals, error) {
	var t streamTotals
	for _, id := range ids {
		st, err := c.Stats(ctx, id)
		if err != nil {
			return t, fmt.Errorf("stats for %q: %w", id, err)
		}
		t.rounds += st.Regret.Rounds
		t.regret += st.Regret.CumulativeRegret
		t.value += st.Regret.CumulativeValue
		t.counted += st.Counters.Rounds
		t.skips += st.Counters.Skips
		t.cuts += st.Counters.CutsApplied
	}
	return t, nil
}

func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ---- impression-batch ----------------------------------------------

// impression prices Avazu-shaped hashed-CTR vectors in PriceBatch calls
// on streams chosen with Zipf (s=1) popularity.
type impression struct {
	sz      sizes
	streams []string
	xs      [][]float64
	vals    []float64
	writes  []impOp // pre-generated write inputs
	reads   []int   // stream index of each read
	short   atomic.Int64
}

type impOp struct{ stream, start int }

func newImpression(seed uint64, sz sizes) (*impression, error) {
	active := min(21, sz.impDim-1) // one coordinate carries the bias
	src, err := dataset.NewAvazuStream(dataset.AvazuConfig{HashDim: sz.impDim, ActiveWeights: active, Seed: corpusSeed})
	if err != nil {
		return nil, err
	}
	truth := src.Truth()
	s := &impression{sz: sz, xs: make([][]float64, sz.impPool), vals: make([]float64, sz.impPool)}
	for i := range s.xs {
		_, x := src.Next()
		s.xs[i] = x
		s.vals[i] = 1 / (1 + math.Exp(-x.Dot(truth)))
	}
	s.streams = make([]string, sz.impStreams)
	for i := range s.streams {
		s.streams[i] = fmt.Sprintf("imp-%03d", i)
	}
	rng := randx.NewStream(seed, 0x1b9)
	pick := loadgen.NewChooser(sz.impStreams, 1, rng)
	s.writes = make([]impOp, seqLen)
	for i := range s.writes {
		s.writes[i] = impOp{stream: pick.Next(), start: rng.Intn(sz.impPool)}
	}
	s.reads = make([]int, seqLen)
	for i := range s.reads {
		s.reads[i] = pick.Next()
	}
	return s, nil
}

func (s *impression) durable() bool            { return false }
func (s *impression) rate(k opKind) float64    { return s.sz.impRates[k] }
func (s *impression) closedKind(uint64) opKind { return opWrite }
func (s *impression) createReq(id string) api.CreateStreamRequest {
	return api.CreateStreamRequest{ID: id, Family: "linear", Dim: s.sz.impDim, Horizon: 10_000_000}
}

func (s *impression) provision(ctx context.Context, c *client.Client) error {
	s.short.Store(0)
	for _, id := range s.streams {
		if _, err := c.CreateStream(ctx, s.createReq(id)); err != nil {
			return fmt.Errorf("creating stream %q: %w", id, err)
		}
	}
	return nil
}

// rounds fills dst with the rounds of one write op.
func (s *impression) rounds(dst []api.BatchPriceRound, op impOp) {
	for k := range dst {
		i := (op.start + k) % len(s.xs)
		dst[k] = api.BatchPriceRound{Features: s.xs[i], Valuation: &s.vals[i]}
	}
}

func (s *impression) newWorker(c *client.Client) opWorker {
	return &impWorker{s: s, c: c, rounds: make([]api.BatchPriceRound, s.sz.batch)}
}

type impWorker struct {
	s      *impression
	c      *client.Client
	rounds []api.BatchPriceRound
}

func (w *impWorker) issue(ctx context.Context, kind opKind, n uint64) (int, error) {
	s := w.s
	if kind == opRead {
		_, err := w.c.Stats(ctx, s.streams[s.reads[n%seqLen]])
		return 0, err
	}
	op := s.writes[n%seqLen]
	s.rounds(w.rounds, op)
	res, err := w.c.PriceBatch(ctx, s.streams[op.stream], w.rounds)
	if err != nil {
		return 0, err
	}
	return batchUnits(res, len(w.rounds), func(r api.BatchRoundResult) string { return r.Error }, &s.short)
}

func (s *impression) regretRatio(ctx context.Context, c *client.Client) (float64, error) {
	t, err := sumStreamStats(ctx, c, s.streams)
	return share(t.regret, t.value), err
}

func (s *impression) check(ctx context.Context, c *client.Client, units int64) error {
	t, err := sumStreamStats(ctx, c, s.streams)
	if err != nil {
		return err
	}
	var errs []error
	if int64(t.rounds) != units {
		errs = append(errs, fmt.Errorf("client counted %d rounds, /stats rounds grew by %d", units, t.rounds))
	}
	if n := s.short.Load(); n > 0 {
		errs = append(errs, fmt.Errorf("%d batches returned a result count unlike their round count", n))
	}
	return errors.Join(errs...)
}

func (s *impression) served(ctx context.Context, c *client.Client) (map[string]float64, error) {
	t, err := sumStreamStats(ctx, c, s.streams)
	return map[string]float64{
		"pricing.cut_share":  share(float64(t.cuts), float64(t.counted)),
		"pricing.skip_share": share(float64(t.skips), float64(t.counted)),
		"market.sold_share":  0,
	}, err
}

// ---- ratings-market ------------------------------------------------

// ratings trades MovieLens-shaped sparse queries against one hosted
// market whose owners are the corpus's raters. Each trade draws its
// query with Zipf popularity from a pool several times the broker's
// 256-entry quote cache, so trades take both the cache-hit and the
// cache-miss path.
type ratings struct {
	sz     sizes
	create api.CreateMarketRequest
	pool   []sparseQuery
	writes []int32   // pool index of each trade, batch per op
	values []float64 // the consumer's valuation of each trade
	trades atomic.Int64
	short  atomic.Int64
}

type sparseQuery struct {
	idx []int
	w   []float64
}

const marketID = "ratings"

func newRatings(seed uint64, sz sizes) (*ratings, error) {
	rs, err := dataset.GenerateRatings(dataset.MovieLensConfig{
		Users: sz.owners, Movies: 600, RatingsPerUser: 20, Seed: corpusSeed,
	})
	if err != nil {
		return nil, err
	}
	profiles := dataset.UserProfiles(rs)
	values, ranges := dataset.OwnerValues(profiles)
	owners := make([]api.OwnerSpec, len(profiles))
	for i := range owners {
		owners[i] = api.OwnerSpec{Value: values[i], Range: ranges[i],
			Contract: api.ContractSpec{Type: "tanh", Rho: 1, Eta: 10}}
	}
	s := &ratings{sz: sz, create: api.CreateMarketRequest{
		ID: marketID, Owners: owners, Seed: seed, Family: "linear", Horizon: 10_000_000,
	}}
	rng := randx.NewStream(seed, 0x2a71)
	ownerPick := loadgen.NewChooser(len(owners), 1, rng)
	scratch := make(map[int]struct{}, sz.support)
	s.pool = make([]sparseQuery, sz.queryPool)
	for i := range s.pool {
		idx := ownerPick.NextDistinct(sz.support, scratch)
		sort.Ints(idx)
		w := make([]float64, len(idx))
		for j := range w {
			w[j] = math.Abs(rng.Normal(0, 1))
		}
		s.pool[i] = sparseQuery{idx: idx, w: w}
	}
	queryPick := loadgen.NewChooser(sz.queryPool, 1, rng)
	s.writes = make([]int32, seqLen*sz.batch)
	s.values = make([]float64, len(s.writes))
	for i := range s.writes {
		s.writes[i] = int32(queryPick.Next())
		s.values[i] = rng.Uniform(0, 5)
	}
	return s, nil
}

func (s *ratings) durable() bool         { return false }
func (s *ratings) rate(k opKind) float64 { return s.sz.ratRates[k] }
func (s *ratings) closedKind(n uint64) opKind {
	// Every trade batch is followed by one ledger-page-plus-stats read.
	if n%2 == 1 {
		return opRead
	}
	return opWrite
}

func (s *ratings) provision(ctx context.Context, c *client.Client) error {
	s.trades.Store(0)
	s.short.Store(0)
	if _, err := c.CreateMarket(ctx, s.create); err != nil {
		return fmt.Errorf("creating market: %w", err)
	}
	return nil
}

// denseTrades scatters write op n's pooled queries into dense weight
// vectors, the form the wire carries. dense and prev are the caller's
// reusable buffers; only the previous supports are cleared.
func (s *ratings) denseTrades(dst []api.TradeRequest, dense [][]float64, prev [][]int, n uint64) {
	base := int(n%seqLen) * s.sz.batch
	for k := range dst {
		q := &s.pool[s.writes[base+k]]
		wts := dense[k]
		for _, i := range prev[k] {
			wts[i] = 0
		}
		for j, i := range q.idx {
			wts[i] = q.w[j]
		}
		prev[k] = q.idx
		dst[k] = api.TradeRequest{Weights: wts, NoiseVariance: 1, Valuation: s.values[base+k]}
	}
}

func (s *ratings) newDense() ([]api.TradeRequest, [][]float64, [][]int) {
	dense := make([][]float64, s.sz.batch)
	for k := range dense {
		dense[k] = make([]float64, len(s.create.Owners))
	}
	return make([]api.TradeRequest, s.sz.batch), dense, make([][]int, s.sz.batch)
}

func (s *ratings) newWorker(c *client.Client) opWorker {
	w := &ratWorker{s: s, c: c}
	w.trades, w.dense, w.prev = s.newDense()
	return w
}

type ratWorker struct {
	s      *ratings
	c      *client.Client
	trades []api.TradeRequest
	dense  [][]float64
	prev   [][]int
}

// ledgerPage is the page size of a read op's ledger read.
const ledgerPage = 64

// ledgerOffset is the offset of the latest full ledger page when
// trades have settled.
func ledgerOffset(trades int64) int {
	return int(max(0, trades-ledgerPage))
}

func (w *ratWorker) issue(ctx context.Context, kind opKind, n uint64) (int, error) {
	s := w.s
	if kind == opRead {
		off := ledgerOffset(s.trades.Load())
		page, err := w.c.Ledger(ctx, marketID, off, ledgerPage)
		if err != nil {
			return 0, err
		}
		if page.Total < off || len(page.Entries) > ledgerPage {
			return 0, fmt.Errorf("ledger page at %d holds %d entries of %d", off, len(page.Entries), page.Total)
		}
		_, err = w.c.MarketStats(ctx, marketID)
		return 0, err
	}
	s.denseTrades(w.trades, w.dense, w.prev, n)
	res, err := w.c.TradeBatch(ctx, marketID, w.trades)
	if err != nil {
		return 0, err
	}
	units, err := batchUnits(res, len(w.trades), func(r api.TradeBatchResult) string { return r.Error }, &s.short)
	s.trades.Add(int64(units))
	return units, err
}

func (s *ratings) regretRatio(ctx context.Context, c *client.Client) (float64, error) {
	ms, err := c.MarketStats(ctx, marketID)
	return share(ms.Regret.CumulativeRegret, ms.Regret.CumulativeValue), err
}

func (s *ratings) check(ctx context.Context, c *client.Client, units int64) error {
	ms, err := c.MarketStats(ctx, marketID)
	if err != nil {
		return err
	}
	page, err := c.Ledger(ctx, marketID, 0, 1)
	if err != nil {
		return err
	}
	pay, err := c.Payouts(ctx, marketID)
	if err != nil {
		return err
	}
	var errs []error
	if int64(page.Total) != units || int64(ms.Rounds) != units {
		errs = append(errs, fmt.Errorf("client counted %d trades, ledger holds %d, stats count %d", units, page.Total, ms.Rounds))
	}
	if tol := 1e-9 * math.Max(1, math.Abs(ms.Compensation)); math.Abs(pay.Total-ms.Compensation) > tol {
		errs = append(errs, fmt.Errorf("payouts total %.12g differs from market compensation %.12g", pay.Total, ms.Compensation))
	}
	if ms.Profit < -1e-9*math.Max(1, ms.Revenue) {
		errs = append(errs, fmt.Errorf("market profit %.12g is negative; the reserve constraint forbids it", ms.Profit))
	}
	if n := s.short.Load(); n > 0 {
		errs = append(errs, fmt.Errorf("%d batches returned a result count unlike their trade count", n))
	}
	return errors.Join(errs...)
}

func (s *ratings) served(ctx context.Context, c *client.Client) (map[string]float64, error) {
	ms, err := c.MarketStats(ctx, marketID)
	return map[string]float64{
		"pricing.cut_share":  share(float64(ms.Counters.CutsApplied), float64(ms.Counters.Rounds)),
		"pricing.skip_share": share(float64(ms.Counters.Skips), float64(ms.Counters.Rounds)),
		"market.sold_share":  share(float64(ms.Sold), float64(ms.Rounds)),
	}, err
}

// ---- accommodation-durable -----------------------------------------

// accommodation prices Airbnb-shaped listings one round at a time
// through client.Flusher on city×room-type streams of a journaled
// broker, beside stats reads and stream lifecycle writes.
type accommodation struct {
	sz      sizes
	streams []string // the city×room-type streams priced
	listing []accListing
	writes  []int32 // listing index of each pricing round
	reads   []int32 // stream index of each stats read

	flusher *client.Flusher

	lifeMu   sync.Mutex
	live     []string // lifecycle streams, oldest first
	nextLife int
}

type accListing struct {
	stream    int
	features  []float64
	reserve   float64
	valuation float64
}

// segmentID names the city×room-type stream a listing is priced on.
func segmentID(l *dataset.Listing) string {
	room, _, _ := strings.Cut(l.RoomType, " ")
	return fmt.Sprintf("acc-%s-%s", strings.ToLower(l.City), strings.ToLower(room))
}

func newAccommodation(seed uint64, sz sizes) (*accommodation, error) {
	ls, _, _, err := dataset.GenerateListings(dataset.AirbnbConfig{Count: sz.listings, Seed: corpusSeed, NoiseStd: 0.475})
	if err != nil {
		return nil, err
	}
	s := &accommodation{sz: sz}
	index := make(map[string]int) // stream ID → position in s.streams
	for i := range ls {
		index[segmentID(&ls[i])] = 0
	}
	for id := range index {
		s.streams = append(s.streams, id)
	}
	sort.Strings(s.streams)
	for i, id := range s.streams {
		index[id] = i
	}
	for i := range ls {
		x, err := dataset.FeaturizeListing(&ls[i])
		if err != nil {
			return nil, err
		}
		s.listing = append(s.listing, accListing{
			stream: index[segmentID(&ls[i])], features: x,
			reserve: 0.5 * ls[i].LogPrice, valuation: ls[i].LogPrice,
		})
	}
	rng := randx.NewStream(seed, 0xacc0)
	s.writes = make([]int32, seqLen)
	for i := range s.writes {
		s.writes[i] = int32(rng.Intn(len(s.listing)))
	}
	s.reads = make([]int32, seqLen)
	for i := range s.reads {
		s.reads[i] = int32(rng.Intn(len(s.streams)))
	}
	return s, nil
}

func (s *accommodation) durable() bool         { return true }
func (s *accommodation) rate(k opKind) float64 { return s.sz.accRates[k] }
func (s *accommodation) closedKind(n uint64) opKind {
	switch {
	case n%25 == 24:
		return opLife
	case n%10 == 9:
		return opRead
	}
	return opWrite
}

func (s *accommodation) createReq(id string) api.CreateStreamRequest {
	return api.CreateStreamRequest{ID: id, Family: "linear", Dim: dataset.AirbnbFeatureDim,
		Reserve: true, Horizon: 10_000_000}
}

func (s *accommodation) provision(ctx context.Context, c *client.Client) error {
	for _, id := range s.streams {
		if _, err := c.CreateStream(ctx, s.createReq(id)); err != nil {
			return fmt.Errorf("creating stream %q: %w", id, err)
		}
	}
	s.live, s.nextLife = nil, 0
	for i := 0; i < s.sz.lifeWindow; i++ {
		id := s.lifeID()
		if _, err := c.CreateStream(ctx, s.createReq(id)); err != nil {
			return fmt.Errorf("creating stream %q: %w", id, err)
		}
		s.live = append(s.live, id)
	}
	s.flusher = client.NewFlusher(c, client.FlusherConfig{})
	return nil
}

func (s *accommodation) lifeID() string {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.nextLife++
	return fmt.Sprintf("acc-segment-%06d", s.nextLife)
}

func (s *accommodation) newWorker(c *client.Client) opWorker {
	return &accWorker{s: s, c: c, f: s.flusher}
}

type accWorker struct {
	s *accommodation
	c *client.Client
	f *client.Flusher
}

func (w *accWorker) issue(ctx context.Context, kind opKind, n uint64) (int, error) {
	s := w.s
	switch kind {
	case opRead:
		_, err := w.c.Stats(ctx, s.streams[s.reads[n%seqLen]])
		return 0, err
	case opLife:
		// A new listing segment comes online and the oldest retires;
		// both are journaled write-ahead under the registry shard lock.
		id := s.lifeID()
		noteStream(ctx, id)
		if _, err := w.c.CreateStream(ctx, s.createReq(id)); err != nil {
			return 0, err
		}
		s.lifeMu.Lock()
		s.live = append(s.live, id)
		old := s.live[0]
		s.live = s.live[1:]
		s.lifeMu.Unlock()
		noteStream(ctx, old)
		return 0, w.c.DeleteStream(ctx, old, false)
	}
	l := &s.listing[s.writes[n%seqLen]]
	id := s.streams[l.stream]
	noteFlush(ctx, id, l.valuation)
	if _, err := w.f.Price(ctx, id, l.features, l.reserve, l.valuation); err != nil {
		return 0, err
	}
	return 1, nil
}

func (s *accommodation) regretRatio(ctx context.Context, c *client.Client) (float64, error) {
	t, err := sumStreamStats(ctx, c, s.streams)
	return share(t.regret, t.value), err
}

func (s *accommodation) check(ctx context.Context, c *client.Client, units int64) error {
	t, err := sumStreamStats(ctx, c, s.streams)
	if err != nil {
		return err
	}
	list, err := c.ListStreams(ctx)
	if err != nil {
		return err
	}
	var errs []error
	if int64(t.rounds) != units {
		errs = append(errs, fmt.Errorf("client counted %d rounds, /stats rounds grew by %d", units, t.rounds))
	}
	if want := len(s.streams) + s.sz.lifeWindow; len(list) != want {
		errs = append(errs, fmt.Errorf("broker hosts %d streams after lifecycle churn, want %d", len(list), want))
	}
	return errors.Join(errs...)
}

func (s *accommodation) served(ctx context.Context, c *client.Client) (map[string]float64, error) {
	t, err := sumStreamStats(ctx, c, s.streams)
	return map[string]float64{
		"pricing.cut_share":  share(float64(t.cuts), float64(t.counted)),
		"pricing.skip_share": share(float64(t.skips), float64(t.counted)),
		"market.sold_share":  0,
	}, err
}

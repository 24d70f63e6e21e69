// Command perfbench is the repository's benchmark. It hosts a broker
// in-process behind a loopback listener and drives one of three
// dataset-shaped workloads through the public SDK (binary codec) with
// internal/loadgen's drivers. A run is a series of cycles, each on a
// freshly provisioned broker: an open-loop slice at a fixed rate per op
// kind, then a closed-loop slice with one worker per CPU. It checks the
// broker's books against what the client counted and prints, as its
// last line, one JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics of a traced run (--trace 1).
//
//	go run . --workload ratings-market --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datamarket/client"
	"datamarket/internal/histo"
	"datamarket/internal/loadgen"
	"datamarket/internal/store"
)

const (
	// cycles is how many times a run hosts and provisions a fresh
	// broker and drives it through an open-loop and then a closed-loop
	// slice; setup_s is the median of their set-up times.
	cycles = 10
	// replayStride keeps the traced run's replay to every replayStride-th
	// cycle, which holds the run within its time at full size.
	replayStride = 3
	// checkpointEvery is the durable broker's checkpoint schedule.
	checkpointEvery = 100 * time.Millisecond
	// maxOutstanding bounds each open loop's in-flight ops; a slot that
	// finds the bound reached is dropped and counts as failed.
	maxOutstanding = 32
	// windowSamples is the fewest open-loop samples in one latency
	// window, so that its p90 has at least ten beyond it; maxWindows
	// caps the window count.
	windowSamples = 120
	maxWindows    = 20
	// closedWindows is how many windows each closed-loop slice is cut
	// into; throughput is the median of all slices' window rates.
	closedWindows = 2
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sz       sizes
	dataDir  string // parent of the journal directories
	traceDir string // where the traced run writes its spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "impression-batch | ratings-market | accommodation-durable")
	flag.Uint64Var(&opt.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&opt.seconds, "seconds", 30, "measured seconds, split evenly between the open- and closed-loop slices of the cycles")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	opt.trace = trace == 1
	opt.sz = fullSizes
	opt.dataDir = filepath.Join(".bench_build", "perfbench-data")
	opt.traceDir = opt.dataDir
	res, meta, err := run(context.Background(), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res, meta); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// printResult prints the metadata line and then the result line.
func printResult(w io.Writer, res *result, meta map[string]any) error {
	for _, v := range []any{map[string]any{"meta": meta}, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// measurement is what one run of a workload's cycles measured.
type measurement struct {
	setup []float64 // s, one per cycle
	rates []float64 // closed-loop units/s, one per window
	// lat and readLat are the open-loop latencies from the scheduled
	// send, in ms, cut into consecutive windows of the schedules, each
	// sorted. A percentile is reported as its median over the windows,
	// which keeps a burst of host noise in one window from moving it.
	lat, readLat [][]float64
	// latHist and readLatHist replace lat and readLat when an open loop
	// dropped slots, which breaks the op-to-slot mapping.
	latHist, readLatHist *histo.Histogram
	late                 []float64 // how late the write loop's generator dispatched, ms, sorted
	regret               []float64 // one per cycle
	heapMB               []float64 // live heap after each open-loop slice, above the inputs
	attempted            int64
	failed               int64
	checks               error
	served               map[string]float64 // mean over the cycles
	commits, commitRecs  uint64
}

func (m *measurement) throughput() float64 { return median(m.rates) }

func run(ctx context.Context, opt options) (*result, map[string]any, error) {
	if opt.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive, got %g", opt.seconds)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	sc, err := newScenario(opt.workload, opt.seed, opt.sz)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(opt.dataDir, 0o755); err != nil {
		return nil, nil, err
	}
	base := liveHeapMB()
	m, err := measure(ctx, sc, opt, nil, nproc, base)
	if err != nil {
		return nil, nil, err
	}
	meta := map[string]any{
		"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"commit": commit(), "go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": nproc, "client_conns": nproc,
		"cycles": cycles, "setup_s": m.setup,
		"open_rates_per_s": map[string]float64{"write": sc.rate(opWrite), "read": sc.rate(opRead), "life": sc.rate(opLife)},
		"samples": map[string][]int{"latency": windowSizes(m.lat), "read_latency": windowSizes(m.readLat),
			"throughput": {len(m.rates)}},
		"generator_late_ms": map[string]float64{
			"p50": quantile(m.late, 0.5), "p99": quantile(m.late, 0.99), "max": quantile(m.late, 1),
		},
	}
	res := &result{Correct: m.checks == nil, Attempted: m.attempted, Failed: m.failed}
	if m.checks != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", m.checks)
	}
	if !opt.trace {
		res.Metrics, err = endToEnd(m)
		return res, meta, err
	}

	tr := newTracer()
	mt, err := measure(ctx, sc, opt, tr, nproc, base)
	if err != nil {
		return nil, nil, err
	}
	rep := newReplayResult()
	for i, ops := range tr.cycleOps() {
		if i%replayStride != 0 {
			continue
		}
		r, err := sc.replay(ops)
		if err != nil {
			return nil, nil, err
		}
		rep.merge(r)
	}
	layers := tr.layers(rep)
	for k, v := range mt.served {
		layers[k] = v
	}
	layers["store.records_per_commit"] = share(float64(mt.commitRecs), float64(mt.commits))
	layers["trace.overhead_latency_p50_ms"] = windowMedian(mt.lat) - windowMedian(m.lat)
	layers["trace.overhead_throughput_share"] = 1 - share(mt.throughput(), m.throughput())
	res.Metrics = make(map[string]metric, len(layers))
	for _, l := range perLayer {
		v, ok := layers[l.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("per-layer metric %s is missing or not finite (%v)", l.name, v)
		}
		res.Metrics[l.name] = metric{Value: v, Unit: l.unit}
	}
	if n := layers["trace.broken_links"]; n > 0 {
		mt.checks = errors.Join(mt.checks, fmt.Errorf("%v spans are not linked to their op's parent span or did not echo its op ID", n))
	}
	if mt.checks != nil {
		fmt.Fprintln(os.Stderr, "perfbench: traced run check failed:", mt.checks)
	}
	res.Correct = res.Correct && mt.checks == nil
	res.Attempted += mt.attempted
	res.Failed += mt.failed
	meta["traced_samples"] = map[string]any{"latency": windowSizes(mt.lat), "read_latency": windowSizes(mt.readLat), "replayed_ops": len(rep.busy)}
	if opt.traceDir != "" {
		path := filepath.Join(opt.traceDir, fmt.Sprintf("spans-%s-%d.jsonl", opt.workload, opt.seed))
		if err := tr.writeSpans(path); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
		meta["spans"] = path
	}
	return res, meta, nil
}

// endToEnd names the untraced run's metrics, refusing a percentile
// with fewer than ten samples beyond it.
func endToEnd(m *measurement) (map[string]metric, error) {
	var errs []error
	pct := func(wins [][]float64, h *histo.Histogram, p float64) float64 {
		if h != nil {
			if float64(h.Count())*(1-p) < 10 {
				errs = append(errs, fmt.Errorf("p%g of %d samples has fewer than 10 beyond it", p*100, h.Count()))
			}
			return float64(h.Quantile(p)) / 1e6
		}
		if len(wins) == 0 {
			errs = append(errs, fmt.Errorf("too few open-loop samples for a p%g", p*100))
		}
		per := make([]float64, len(wins))
		for i, w := range wins {
			var err error
			per[i], err = percentile(w, p)
			errs = append(errs, err)
		}
		return median(per)
	}
	vals := map[string]float64{
		"setup_s":                median(m.setup),
		"throughput_units_per_s": m.throughput(),
		"latency_p50_ms":         pct(m.lat, m.latHist, 0.5),
		"latency_p90_ms":         pct(m.lat, m.latHist, 0.9),
		"read_latency_p50_ms":    pct(m.readLat, m.readLatHist, 0.5),
		"read_latency_p90_ms":    pct(m.readLat, m.readLatHist, 0.9),
		"success_share":          1 - share(float64(m.failed), float64(m.attempted)),
		"regret_ratio":           median(m.regret),
		"broker_heap_mb":         median(m.heapMB),
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make(map[string]metric, len(vals))
	for _, e := range endToEndMetrics {
		v := vals[e.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", e.name)
		}
		out[e.name] = metric{Value: v, Unit: e.unit}
	}
	return out, nil
}

type named struct{ name, unit string }

// endToEndMetrics and perLayer are the metrics BENCHMARK.json lists.
var endToEndMetrics = []named{
	{"setup_s", "s"},
	{"throughput_units_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"read_latency_p50_ms", "ms"},
	{"read_latency_p90_ms", "ms"},
	{"success_share", "share"},
	{"regret_ratio", "ratio"},
	{"broker_heap_mb", "MB"},
}

var perLayer = func() []named {
	l := []named{
		{"client.call_us", "us"},
		{"client.self_us", "us"},
		{"client.flusher_rounds_per_request", "count"},
		{"client.exchanges_per_call", "count"},
		{"wire.request_bytes", "bytes"},
		{"wire.response_bytes", "bytes"},
		{"wire.transit_us", "us"},
		{"codec.encode_us", "us"},
		{"codec.decode_us", "us"},
		{"server.handler_us", "us"},
		{"server.wait_us", "us"},
		{"pricing.round_us", "us"},
		{"pricing.cut_share", "share"},
		{"pricing.skip_share", "share"},
		{"market.query_build_us", "us"},
		{"market.prepare_us", "us"},
		{"market.trade_batch_us", "us"},
		{"market.ledger_read_us", "us"},
		{"market.sold_share", "share"},
		{"store.put_us", "us"},
		{"store.ticket_wait_us", "us"},
		{"store.records_per_commit", "count"},
		{"persist.checkpoint_us", "us"},
		{"persist.streams_per_pass", "count"},
		{"trace.overhead_latency_p50_ms", "ms"},
		{"trace.overhead_throughput_share", "share"},
		{"trace.broken_links", "count"},
	}
	for _, r := range routes {
		l = append(l, named{"server.requests." + r.name, "count"}, named{"server.errors." + r.name, "count"})
	}
	return l
}()

// measure runs the workload's cycles. Each cycle hosts and provisions
// a fresh broker, drives it through an open-loop slice and then a
// closed-loop slice, each seconds/(2·cycles) long, checks its books and
// closes it. The host's speed drifts over tens of seconds; slicing both
// phases across the whole run makes every metric average over that
// drift, and since each open-loop slice meets a freshly provisioned
// broker, what it measures does not depend on how much work the
// closed loop got through before it.
func measure(ctx context.Context, sc scenario, opt options, tr *tracer, conns int, heapBase float64) (*measurement, error) {
	m := &measurement{served: make(map[string]float64)}
	d := &driver{sc: sc, tr: tr}
	slice := time.Duration(opt.seconds / 2 / cycles * float64(time.Second))
	for i := 0; i < cycles; i++ {
		if err := d.cycle(ctx, opt, i, slice, conns, heapBase, m); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
	}
	m.attempted, m.failed = d.attempted.Load(), d.failed.Load()
	m.lat, m.latHist = d.latencies(opWrite)
	m.readLat, m.readLatHist = d.latencies(opRead)
	sort.Float64s(d.late)
	m.late = d.late
	return m, nil
}

// cycle runs one cycle of measure on a freshly hosted broker.
func (d *driver) cycle(ctx context.Context, opt options, i int, slice time.Duration, conns int, heapBase float64, m *measurement) (err error) {
	sc := d.sc
	dir := ""
	if sc.durable() {
		dir = filepath.Join(opt.dataDir, fmt.Sprintf("journal-%d-%d", os.Getpid(), i))
	}
	// The last cycle's garbage is collected first, so that set-up does
	// not pay for it.
	runtime.GC()
	t0 := time.Now()
	h, err := startHost(sc.durable(), dir, conns, d.tr)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer func() { err = errors.Join(err, h.close()) }()
	if err := sc.provision(ctx, h.client); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	m.setup = append(m.setup, time.Since(t0).Seconds())
	d.c = h.client
	d.tr.setCycle(i)
	units0 := d.units.Load()

	var ck *checkpointer
	var stats0 store.Stats
	startCk := func() {
		if h.persister != nil {
			ck = startCheckpointer(h.persister, checkpointEvery, d.tr)
		}
	}
	haltCk := func() {
		if ck != nil {
			ck.halt()
			ck = nil
		}
	}
	defer haltCk()
	if h.persister != nil {
		stats0 = h.journal.Stats()
	}
	startCk()
	if err := d.openPhase(ctx, slice); err != nil {
		return err
	}
	r, err := sc.regretRatio(ctx, h.client)
	if err != nil {
		return err
	}
	m.regret = append(m.regret, r)
	// The heap is read after the open loop's fixed op count, with no
	// checkpoint pass in flight: the market ledger grows with the
	// closed loop's throughput, and a faster broker must not read as
	// a bigger one.
	haltCk()
	m.heapMB = append(m.heapMB, liveHeapMB()-heapBase)
	startCk()
	if err := d.closedPhase(ctx, slice, conns, m); err != nil {
		return err
	}
	haltCk()
	checks := sc.check(ctx, h.client, d.units.Load()-units0)
	if h.persister != nil {
		st := h.journal.Stats()
		m.commits += st.Commits - stats0.Commits
		m.commitRecs += st.CommitRecords - stats0.CommitRecords
		checks = errors.Join(checks, checkStore(ctx, h))
	}
	if checks != nil {
		m.checks = errors.Join(m.checks, fmt.Errorf("cycle %d: %w", i, checks))
	}
	if d.tr != nil {
		served, err := sc.served(ctx, h.client)
		if err != nil {
			return err
		}
		for k, v := range served {
			m.served[k] += v / cycles
		}
	}
	return nil
}

// checkStore runs a checkpoint pass and checks that the journal's live
// set is exactly the broker's streams.
func checkStore(ctx context.Context, h *host) error {
	stats := h.persister.Checkpoint()
	if stats.Errors > 0 {
		return fmt.Errorf("final checkpoint pass had %d errors", stats.Errors)
	}
	entries, err := h.journal.Load()
	if err != nil {
		return err
	}
	list, err := h.client.ListStreams(ctx)
	if err != nil {
		return err
	}
	live := make(map[string]bool, len(list))
	for _, s := range list {
		live[s.ID] = true
	}
	for _, e := range entries {
		if !live[e.ID] {
			return fmt.Errorf("journal holds stream %q the broker no longer hosts", e.ID)
		}
	}
	if len(entries) != len(list) {
		return fmt.Errorf("journal holds %d streams, broker hosts %d", len(entries), len(list))
	}
	return nil
}

// driver runs one measurement's cycles through loadgen's drivers.
type driver struct {
	sc      scenario
	c       *client.Client // the current cycle's
	tr      *tracer
	next    [numKinds]atomic.Uint64 // next input index per kind
	closedN atomic.Uint64

	attempted, failed, units atomic.Int64

	// Open-loop results of every cycle so far, per kind: the latencies
	// from the scheduled send in schedule order, ms, and the loops'
	// histograms, which replace them once a slot was dropped.
	sched   [numKinds][]float64
	hist    [numKinds]*histo.Histogram
	dropped [numKinds]bool
	late    []float64 // the write loop's dispatch lateness, ms
}

// latencies returns kind k's open-loop latencies cut into windows, or,
// when the loop dropped a slot, its histogram.
func (d *driver) latencies(k opKind) ([][]float64, *histo.Histogram) {
	if d.dropped[k] {
		return nil, d.hist[k]
	}
	return windows(d.sched[k]), nil
}

// load adapts one op kind, or the closed-loop mix, to loadgen.Workload.
type load struct {
	d      *driver
	kind   opKind
	closed bool
	rec    *timings // open loop: when each op started and ended
}

func (l *load) Name() string                                              { return kindNames[l.kind] }
func (l *load) Setup(context.Context, *client.Client) error               { return nil }
func (l *load) Summary(context.Context) (*loadgen.ScenarioSummary, error) { return nil, nil }
func (l *load) NewWorker(int) (loadgen.Worker, error) {
	return &worker{l: l, w: l.d.sc.newWorker(l.d.c)}, nil
}

type worker struct {
	l *load
	w opWorker
}

func (w *worker) Issue(ctx context.Context) (int, error) {
	d, kind := w.l.d, w.l.kind
	if w.l.closed {
		// ClosedLoop cancels in-flight ops at its deadline, so the
		// server would do work the client never counts. Detached, they
		// drain instead: the loop stops issuing and waits for them.
		ctx = context.WithoutCancel(ctx)
		kind = d.sc.closedKind(d.closedN.Add(1) - 1)
	}
	n := d.next[kind].Add(1) - 1
	ctx, span := d.tr.beginCall(ctx, kind, n)
	start := time.Now()
	units, err := w.w.issue(ctx, kind, n)
	end := time.Now()
	d.tr.end(span)
	if w.l.rec != nil {
		w.l.rec.add(start, end, units)
	}
	d.attempted.Add(1)
	d.units.Add(int64(units))
	if err != nil {
		d.failed.Add(1)
		fmt.Fprintf(os.Stderr, "perfbench: %s op failed: %v\n", kindNames[kind], err)
	}
	return units, err
}

type timings struct {
	mu  sync.Mutex
	ops []timedOp
}

type timedOp struct {
	start, end time.Time
	units      int
}

func (t *timings) add(start, end time.Time, units int) {
	t.mu.Lock()
	t.ops = append(t.ops, timedOp{start, end, units})
	t.mu.Unlock()
}

// windowRates splits [start, start+dur) into n windows and returns the
// units per second completed in each.
func (t *timings) windowRates(start time.Time, dur time.Duration, n int) []float64 {
	w := dur / time.Duration(n)
	counts := make([]float64, n)
	for _, op := range t.ops {
		if k := int(op.end.Sub(start) / w); k >= 0 && k < n {
			counts[k] += float64(op.units)
		}
	}
	for k := range counts {
		counts[k] /= w.Seconds()
	}
	return counts
}

// schedule returns each op's latency from its scheduled send time and
// how late it was dispatched, in ms and in schedule order. Op k in
// start order held schedule slot k (start+k/rate) unless a slot was
// dropped, which the caller rules out. OpenLoop measures the same
// latency into a histogram, but its buckets round to 1/64 and it does
// not see dispatch lateness, so the samples are kept here.
func (t *timings) schedule(start time.Time, rate float64) (lat, late []float64) {
	ops := t.ops
	sort.Slice(ops, func(i, j int) bool { return ops[i].start.Before(ops[j].start) })
	interval := float64(time.Second) / rate
	for k, op := range ops {
		sched := start.Add(time.Duration(float64(k) * interval))
		lat = append(lat, float64(op.end.Sub(sched))/1e6)
		late = append(late, float64(op.start.Sub(sched))/1e6)
	}
	return lat, late
}

// windows cuts latencies in schedule order into at most maxWindows
// windows of at least windowSamples consecutive ops, each sorted.
func windows(lat []float64) [][]float64 {
	n := min(len(lat)/windowSamples, maxWindows)
	wins := make([][]float64, 0, n)
	for w := 0; w < n; w++ {
		win := append([]float64(nil), lat[w*len(lat)/n:(w+1)*len(lat)/n]...)
		sort.Float64s(win)
		wins = append(wins, win)
	}
	return wins
}

// openPhase runs every op kind with a rate as its own open loop, all
// at once, for dur.
func (d *driver) openPhase(ctx context.Context, dur time.Duration) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for k := opKind(0); k < numKinds; k++ {
		rate := d.sc.rate(k)
		if rate == 0 {
			continue
		}
		l := &load{d: d, kind: k, rec: &timings{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			out, err := loadgen.OpenLoop(ctx, l, loadgen.OpenLoopConfig{Rate: rate, Duration: dur, MaxOutstanding: maxOutstanding})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			d.attempted.Add(out.Dropped)
			d.failed.Add(out.Dropped)
			if d.hist[k] == nil {
				d.hist[k] = histo.New()
			}
			d.hist[k].Merge(out.Latency)
			if out.Dropped > 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s open loop dropped %d of %d slots at %d in flight\n",
					kindNames[k], out.Dropped, out.Dropped+out.Issued, maxOutstanding)
				d.dropped[k] = true
				return
			}
			lat, late := l.rec.schedule(start, rate)
			d.sched[k] = append(d.sched[k], lat...)
			if k == opWrite {
				d.late = append(d.late, late...)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closedPhase runs conns closed-loop workers for dur.
func (d *driver) closedPhase(ctx context.Context, dur time.Duration, conns int, m *measurement) error {
	before := d.units.Load()
	rec := &timings{}
	start := time.Now()
	out, err := loadgen.ClosedLoop(ctx, &load{d: d, closed: true, rec: rec}, loadgen.ClosedLoopConfig{Concurrency: conns, Duration: dur})
	if err != nil {
		return err
	}
	if done := d.units.Load() - before; done == 0 || out.Elapsed <= 0 {
		return fmt.Errorf("closed loop completed no units")
	}
	// Units completed in the drain after the deadline fall outside
	// every window; the check still counts them.
	m.rates = append(m.rates, rec.windowRates(start, dur, closedWindows)...)
	return nil
}

// windowSizes lists the sample count of each window.
func windowSizes(wins [][]float64) []int {
	n := make([]int, len(wins))
	for i, w := range wins {
		n[i] = len(w)
	}
	return n
}

// windowMedian is the median of the per-window medians.
func windowMedian(wins [][]float64) float64 {
	per := make([]float64, len(wins))
	for i, w := range wins {
		per[i] = median(w)
	}
	return median(per)
}

// quantile is the nearest-rank quantile of sorted values, 0 for none.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(p*float64(len(sorted))))-1, 0)]
}

// liveHeapMB is the live heap after full collections; the second one
// frees what sync.Pools kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// commit is the VCS revision stamped into the binary, if any.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

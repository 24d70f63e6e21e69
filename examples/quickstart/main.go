// Quickstart: drive brokerd through the official Go client SDK.
//
// A stream is a *family* plus a *model config*, not a concrete
// mechanism: this demo stands up the brokerd HTTP server in-process,
// creates a nonlinear stream whose market value model is a landmark RBF
// kernel machine (§IV-A's kernelized model with a fixed landmark
// budget), prices thousands of rounds through the SDK's batch call and
// its auto-batching Flusher, runs one two-phase round through a
// QuoteSession, and finishes with the family-tagged snapshot/restore
// loop a crash recovery would use. Every byte on the wire goes through
// datamarket/client — no hand-rolled HTTP.
package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"

	"datamarket"
	"datamarket/api"
	"datamarket/client"
	"datamarket/internal/kernel"
	"datamarket/internal/randx"
	"datamarket/internal/server"
)

const (
	dim       = 2     // input feature dimension
	batchSize = 256   // rounds per HTTP batch request
	batches   = 16    // 4096 rounds total
	gamma     = 0.8   // RBF kernel width
	threshold = 0.005 // exploration threshold ε
)

func main() {
	ctx := context.Background()

	// Landmarks on a 3×3 grid over the feature square: the public part of
	// the kernelized model. Only the weights over K(x, lⱼ) are learned.
	var landmarks [][]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			landmarks = append(landmarks, []float64{float64(i) / 2, float64(j) / 2})
		}
	}

	// Hidden ground truth: positive weights over the landmark features.
	rng := randx.New(7)
	theta := rng.NormalVector(len(landmarks), 1)
	for i := range theta {
		theta[i] = math.Abs(theta[i])
	}
	theta.Normalize()
	rbf, err := kernel.NewRBF(gamma)
	check(err)
	value := func(x datamarket.Vector) float64 {
		var v float64
		for j, l := range landmarks {
			v += rbf.Eval(x, datamarket.Vector(l)) * theta[j]
		}
		return v
	}

	// Start brokerd's server on a loopback listener and connect the SDK.
	// The client verifies API compatibility (GET /v1/version) on first
	// use, pools connections, and retries idempotent calls with backoff.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go http.Serve(ln, server.NewServer(nil).Handler())
	c, err := client.New("http://" + ln.Addr().String())
	check(err)
	v, err := c.ServerVersion(ctx)
	check(err)
	fmt.Printf("connected: API %s, brokerd %s (%s)\n", v.API, v.Server, v.GoVersion)

	// Create the kernelized stream: family "nonlinear", identity link,
	// landmark map over the RBF kernel.
	_, err = c.CreateStream(ctx, api.CreateStreamRequest{
		ID: "kernelized", Family: "nonlinear", Dim: dim,
		Reserve: true, Threshold: threshold,
		Model: &api.ModelConfig{
			Map:       "landmark",
			Kernel:    &api.KernelConfig{Type: "rbf", Gamma: gamma},
			Landmarks: landmarks,
		},
	})
	check(err)

	// Price in batches: each round a query arrives with features in the
	// unit square, a seller-imposed reserve below its market value, and a
	// private valuation the server uses as the accept/reject callback.
	var revenue float64
	var accepts int
	for b := 0; b < batches; b++ {
		rounds := make([]api.BatchPriceRound, batchSize)
		for i := range rounds {
			x := rng.UniformVector(dim, 0, 1)
			v := value(x)
			rounds[i] = api.BatchPriceRound{Features: x, Reserve: 0.75 * v, Valuation: &v}
		}
		results, err := c.PriceBatch(ctx, "kernelized", rounds)
		check(err)
		for _, res := range results {
			if res.Error != "" {
				panic(res.Error)
			}
			if res.Accepted != nil && *res.Accepted {
				revenue += res.Price
				accepts++
			}
		}
		if b == 0 || b == batches-1 {
			fmt.Printf("after %4d rounds: %4d accepted, revenue %7.2f\n",
				(b+1)*batchSize, accepts, revenue)
		}
	}

	// The Flusher gives independent concurrent callers the same batching
	// transparently: each goroutine makes one Price call, the SDK
	// coalesces the calls that arrive while an exchange is in flight into
	// the next /v1/price/batch request, with no linger timer.
	fl := client.NewFlusher(c, client.FlusherConfig{MaxBatch: 64})
	var wg sync.WaitGroup
	for i := 0; i < 128; i++ {
		wg.Add(1)
		x := rng.UniformVector(dim, 0, 1)
		go func() {
			defer wg.Done()
			v := value(x)
			if _, err := fl.Price(ctx, "kernelized", x, 0.75*v, v); err != nil {
				panic(err)
			}
		}()
	}
	wg.Wait()
	fl.Close()
	fmt.Println("flusher: 128 concurrent Price calls coalesced into batch requests")

	// A two-phase round: quote now, report the buyer's decision later.
	// The session enforces one pending round per stream client-side.
	probe0 := rng.UniformVector(dim, 0, 1)
	session, err := c.Quote(ctx, "kernelized", probe0, 0.5*value(probe0))
	check(err)
	check(session.Observe(ctx, datamarket.Sold(session.Quote.Price, value(probe0))))
	fmt.Printf("two-phase round: posted %.4f (%s), observed\n",
		session.Quote.Price, session.Quote.Decision)

	stats, err := c.Stats(ctx, "kernelized")
	check(err)
	fmt.Printf("\nfamily %q: %d exploratory / %d conservative rounds, %d cuts, regret ratio %.2f%%\n",
		stats.Family, stats.Counters.Exploratory, stats.Counters.Conservative,
		stats.Counters.CutsApplied, 100*stats.Regret.RegretRatio)

	// Crash recovery: the snapshot is a family-tagged envelope; restoring
	// it under a fresh ID rebuilds the same kernel machine, and the two
	// streams agree exactly on the next quote.
	env, err := c.Snapshot(ctx, "kernelized")
	check(err)
	_, err = c.Restore(ctx, "recovered", env)
	check(err)
	probe := datamarket.Vector{0.4, 0.6}
	pv := value(probe)
	qa, err := c.Price(ctx, "kernelized", probe, 0.75*pv, pv)
	check(err)
	qb, err := c.Price(ctx, "recovered", probe, 0.75*pv, pv)
	check(err)
	fmt.Printf("snapshot family %q restored: original posts %.4f, recovered posts %.4f (truth %.4f)\n",
		env.Family, qa.Price, qb.Price, pv)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

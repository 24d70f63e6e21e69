package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"datamarket/api"
	"datamarket/internal/server"
)

// TestQuoteSessionProtocol drives the two-phase loop through the SDK
// and asserts the one-pending-round rule is enforced client-side, before
// any wire traffic.
func TestQuoteSessionProtocol(t *testing.T) {
	_, c := newBroker(t)
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2}); err != nil {
		t.Fatal(err)
	}

	s1, err := c.Quote(ctx, "s", []float64{0.3, 0.4}, -100)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Pending() {
		t.Fatal("fresh session not pending")
	}
	if s1.Quote.Decision == "skip" {
		t.Fatalf("unexpected skip: %+v", s1.Quote)
	}

	// A second quote on the same stream fails fast, client-side.
	if _, err := c.Quote(ctx, "s", []float64{0.1, 0.2}, -100); !errors.Is(err, ErrRoundPending) {
		t.Fatalf("second quote: %v, want ErrRoundPending", err)
	}
	// Another stream is unaffected.
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "other", Dim: 2}); err != nil {
		t.Fatal(err)
	}
	s2, err := c.Quote(ctx, "other", []float64{0.3, 0.4}, -100)
	if err != nil {
		t.Fatalf("quote on independent stream: %v", err)
	}
	if err := s2.Observe(ctx, false); err != nil {
		t.Fatal(err)
	}

	if err := s1.Observe(ctx, true); err != nil {
		t.Fatal(err)
	}
	if s1.Pending() {
		t.Fatal("observed session still pending")
	}
	// Observing twice is a client-side error.
	if err := s1.Observe(ctx, true); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("double observe: %v, want ErrRoundClosed", err)
	}
	// The stream accepts a new round now.
	s3, err := c.Quote(ctx, "s", []float64{0.5, 0.1}, -100)
	if err != nil {
		t.Fatalf("quote after observe: %v", err)
	}
	if err := s3.Observe(ctx, false); err != nil {
		t.Fatal(err)
	}
}

// TestQuoteSessionSkip: a skipped round needs no feedback and frees the
// stream immediately.
func TestQuoteSessionSkip(t *testing.T) {
	_, c := newBroker(t)
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2, Reserve: true}); err != nil {
		t.Fatal(err)
	}
	// An absurd reserve forces the certain-no-deal skip path.
	s, err := c.Quote(ctx, "s", []float64{0.3, 0.4}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if s.Quote.Decision != "skip" {
		t.Fatalf("decision %q, want skip", s.Quote.Decision)
	}
	if s.Pending() {
		t.Fatal("skipped session reports pending")
	}
	if err := s.Observe(ctx, false); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("observe on skip: %v, want ErrRoundClosed", err)
	}
	// The stream is free for the next round.
	if _, err := c.Quote(ctx, "s", []float64{0.3, 0.4}, -100); err != nil {
		t.Fatalf("quote after skip: %v", err)
	}
}

// TestQuoteTransportRecovery: when the quote response is lost after the
// server opened the round, the SDK's cleanup observation closes the
// half-open round, so the stream stays usable instead of wedging on 409
// round_pending forever.
func TestQuoteTransportRecovery(t *testing.T) {
	srv := server.NewServer(nil)
	inner := srv.Handler()
	var dropNext atomic.Bool
	proxy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dropNext.CompareAndSwap(true, false) {
			// Let the server process the quote, then lose the response.
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				t.Errorf("inner quote status %d", rec.Code)
			}
			hj, _ := w.(http.Hijacker)
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(proxy)
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.CreateStream(ctx, api.CreateStreamRequest{ID: "s", Dim: 2}); err != nil {
		t.Fatal(err)
	}

	dropNext.Store(true)
	s, err := c.Quote(ctx, "s", []float64{0.3, 0.4}, -100)
	if err == nil {
		t.Fatal("quote with dropped response reported success")
	}
	if s != nil {
		t.Fatalf("cleanup reached the server, session should be nil (err %v)", err)
	}
	// The round the server opened was closed by the cleanup observation;
	// the stream accepts a fresh quote from this client.
	s2, err := c.Quote(ctx, "s", []float64{0.5, 0.1}, -100)
	if err != nil {
		t.Fatalf("stream wedged after transport failure: %v", err)
	}
	if err := s2.Observe(ctx, true); err != nil {
		t.Fatal(err)
	}
}

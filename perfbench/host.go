package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"datamarket/client"
	"datamarket/internal/server"
	"datamarket/internal/store"
)

// host is a broker served in-process behind a real loopback listener,
// plus the SDK client the benchmark drives it with.
type host struct {
	client    *client.Client
	transport *http.Transport
	hs        *http.Server
	served    chan error
	persister *server.Persister
	journal   *store.Journal
	traced    *tracedStore
	dir       string
}

// startHost hosts a broker and provisions nothing. A durable broker
// opens a journal in dir under fsync always and recovers from it; its
// checkpoints run only when the benchmark calls them. conns caps the
// client's connections to the broker.
func startHost(durable bool, dir string, conns int, tr *tracer) (*host, error) {
	h := &host{dir: dir, served: make(chan error, 1)}
	reg := server.NewRegistry(0)
	srv := server.NewServer(reg)
	if durable {
		j, err := store.OpenJournal(store.JournalConfig{Dir: dir, Fsync: store.FsyncAlways})
		if err != nil {
			return nil, fmt.Errorf("opening journal: %w", err)
		}
		h.journal = j
		var st store.Store = j
		if tr != nil {
			h.traced = &tracedStore{Store: j, tr: tr}
			st = h.traced
		}
		p, _, err := server.AttachPersistence(reg, st, server.PersistConfig{Interval: -1})
		if err != nil {
			j.Close()
			return nil, fmt.Errorf("recovering journal: %w", err)
		}
		h.persister = p
		srv.SetPersister(p)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.closeStore()
		return nil, err
	}
	var handler http.Handler = srv.Handler()
	if tr != nil {
		handler = tr.middleware(handler)
	}
	h.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { h.served <- h.hs.Serve(ln) }()

	h.transport = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	var rt http.RoundTripper = h.transport
	if tr != nil {
		rt = &tracedTransport{next: h.transport, tr: tr}
	}
	h.client, err = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: rt}),
		client.WithBinary(), client.WithRetries(0))
	if err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close stops the listener, then the persister (its final checkpoint
// and compaction), and removes the journal directory.
func (h *host) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	h.transport.CloseIdleConnections()
	return errors.Join(err, h.closeStore())
}

func (h *host) closeStore() error {
	var err error
	switch {
	case h.persister != nil:
		err = h.persister.Shutdown()
	case h.journal != nil:
		err = h.journal.Close()
	}
	if h.traced != nil {
		h.traced.wg.Wait()
	}
	if h.dir != "" {
		err = errors.Join(err, os.RemoveAll(h.dir))
	}
	return err
}

// checkpointer calls Persister.Checkpoint every interval until stopped,
// the schedule a durable broker's background checkpointer would keep.
type checkpointer struct {
	stop chan struct{}
	done chan struct{}
}

func startCheckpointer(p *server.Persister, every time.Duration, tr *tracer) *checkpointer {
	c := &checkpointer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				tr.checkpoint(p)
			}
		}
	}()
	return c
}

func (c *checkpointer) halt() {
	close(c.stop)
	<-c.done
}

// tracedStore is the store decorator of a traced durable run: it times
// Put and Delete, and the wait of every PutAsync ticket until its group
// commit lands.
type tracedStore struct {
	store.Store
	tr *tracer
	wg sync.WaitGroup // ticket waiters
}

func (s *tracedStore) Put(e store.Entry) error {
	i := s.tr.storeSpan("store.put", e.ID)
	err := s.Store.Put(e)
	s.tr.end(i)
	return err
}

func (s *tracedStore) Delete(id string) error {
	i := s.tr.storeSpan("store.delete", id)
	err := s.Store.Delete(id)
	s.tr.end(i)
	return err
}

func (s *tracedStore) PutAsync(e store.Entry) *store.Ticket {
	i := s.tr.checkpointChild("store.ticket_wait")
	t := s.Store.PutAsync(e)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Ticket.Wait resolves once and returns the same result to
		// every caller, so waiting here does not disturb the persister.
		_ = t.Wait()
		s.tr.end(i)
	}()
	return t
}

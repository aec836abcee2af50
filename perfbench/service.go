package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/service"
)

// The service settings are cmd/atpgd's defaults, so the lease, wire and
// ledger traffic is what atpgd users see.
const (
	svcWorkers       = 2 // the host's core count: the fleet stays within nproc
	svcLeaseTTL      = 30 * time.Second
	svcExchangeCap   = 4096
	svcMaxActive     = 4
	svcUnitsPerLease = 4
	svcMaxUnits      = 4
	svcPoll          = 100 * time.Millisecond
	svcJobPoll       = 500 * time.Millisecond
	svcEventsWaitMS  = 2000 // the long-poll window the atpg facade uses
)

// spanHeader carries the client span id to the coordinator's handler
// wrapper, which opens the handler span as its child.
const spanHeader = "X-Perfbench-Span"

// endpointOf names the coordinator endpoint a request goes to.
func endpointOf(method, path string) string {
	p := strings.TrimPrefix(path, service.API)
	switch {
	case p == "/lease":
		return "lease"
	case p == "/jobs":
		return "submit"
	case strings.HasPrefix(p, "/circuits/"):
		return "circuit"
	case strings.HasSuffix(p, "/results"):
		if method == http.MethodPost {
			return "results" // a worker posting unit outcomes
		}
		return "fetch" // the client fetching the finished job
	case strings.HasSuffix(p, "/patterns"):
		return "patterns"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/spec"):
		return "spec"
	case method == http.MethodDelete:
		return "cancel"
	}
	return "status"
}

// tracingTransport opens a client span per request, named by endpoint, and
// passes its id to the coordinator in a request header.  The span ends when
// the caller closes the response body, so it covers the whole exchange.
type tracingTransport struct {
	base http.RoundTripper
	tr   *tracer
	on   *atomic.Bool
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.on.Load() {
		return t.base.RoundTrip(req)
	}
	s := t.tr.startCurrent("service.client." + endpointOf(req.Method, req.URL.Path))
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(s.ID(), 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	s    *openSpan
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.s.end)
	return err
}

// tracingHandler opens a handler span around the coordinator, as the child
// of the client span named in the request header.
func tracingHandler(next http.Handler, tr *tracer, on *atomic.Bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		s := tr.start("service.handler."+endpointOf(r.Method, r.URL.Path), parent)
		next.ServeHTTP(w, r)
		s.end()
	})
}

// harness is one in-process deployment: a coordinator with its ledger in a
// scratch directory, served over loopback HTTP, two workers, and the client
// that submits jobs.  Each party gets its own HTTP transport, as separate
// atpgd/atpgctl processes would.
type harness struct {
	co        *service.Coordinator
	srv       *http.Server
	serveDone chan struct{}
	workers   []*service.Worker
	stopWork  context.CancelFunc
	workDone  sync.WaitGroup
	client    *service.Client
	ledgerDir string
	transport []*http.Transport

	tr      *tracer
	tracing atomic.Bool
}

// newTransport returns a fresh transport with the standard library's
// default settings, optionally traced.
func (h *harness) newTransport() http.RoundTripper {
	base := http.DefaultTransport.(*http.Transport).Clone()
	h.transport = append(h.transport, base)
	if h.tr == nil {
		return base
	}
	return &tracingTransport{base: base, tr: h.tr, on: &h.tracing}
}

// startHarness brings up the coordinator and workers.  tr may be nil; with
// a tracer, the wrappers record spans while tracing is switched on.
func startHarness(scratch string, seed int64, tr *tracer) (*harness, error) {
	dir, err := os.MkdirTemp(scratch, "ledger-")
	if err != nil {
		return nil, err
	}
	h := &harness{ledgerDir: dir, tr: tr, serveDone: make(chan struct{})}
	co, err := service.NewCoordinator(service.Config{
		LeaseTTL:      svcLeaseTTL,
		ExchangeCap:   svcExchangeCap,
		MaxActive:     svcMaxActive,
		UnitsPerLease: svcUnitsPerLease,
		LedgerDir:     dir,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start coordinator: %w", err)
	}
	h.co = co
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		co.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("listen: %w", err)
	}
	var handler http.Handler = co
	if tr != nil {
		handler = tracingHandler(co, tr, &h.tracing)
	}
	h.srv = &http.Server{Handler: handler}
	go func() {
		defer close(h.serveDone)
		_ = h.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	h.stopWork = cancel
	for i := 0; i < svcWorkers; i++ {
		wk := service.NewWorker(service.WorkerConfig{
			Coordinator: base,
			ID:          fmt.Sprintf("w%d", i+1),
			MaxUnits:    svcMaxUnits,
			Poll:        svcPoll,
			JobPoll:     svcJobPoll,
			Transport:   h.newTransport(),
			Seed:        seed*int64(svcWorkers) + int64(i) + 1,
		})
		h.workers = append(h.workers, wk)
		h.workDone.Add(1)
		go func() {
			defer h.workDone.Done()
			_ = wk.Run(ctx) // returns the context's error once stopped
		}()
	}
	h.client = service.NewClient(base, service.WithTransport(h.newTransport()))
	return h, nil
}

// stop shuts everything down and waits for every goroutine it started.
func (h *harness) stop() {
	h.stopWork()
	h.workDone.Wait()
	// Every caller has stopped, so close at once: Shutdown would wait up to
	// five seconds for connections a stopped worker dialed but never used.
	_ = h.srv.Close()
	<-h.serveDone
	for _, t := range h.transport {
		t.CloseIdleConnections()
	}
	h.co.Close()
	os.RemoveAll(h.ledgerDir)
}

// jobOutcome is what the client has in hand when a job is finished.
type jobOutcome struct {
	results []core.FaultResult
	tests   *pattern.Set
	stats   core.Stats
	id      string
}

// runJob submits the workload's job and follows its settle events until the
// job is done, then fetches and decodes the results: the timed window of a
// service run.
func (h *harness) runJob(ctx context.Context, w workload, in input, wire []service.WireFault) (jobOutcome, error) {
	var out jobOutcome
	sub, err := h.client.SubmitBench(ctx, in.name, in.bench, w.jobOptions(), wire)
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	out.id = sub.JobID
	for from := 0; ; {
		ev, err := h.client.Events(ctx, sub.JobID, from, svcEventsWaitMS)
		if err != nil {
			return out, fmt.Errorf("events: %w", err)
		}
		from = ev.Next
		if ev.Done {
			break
		}
	}
	resp, err := h.client.Results(ctx, sub.JobID)
	if err != nil {
		return out, fmt.Errorf("results: %w", err)
	}
	if resp.State != "done" {
		return out, fmt.Errorf("job %s ended %s", sub.JobID, resp.State)
	}
	out.results = make([]core.FaultResult, len(resp.Results))
	for i, wr := range resp.Results {
		if out.results[i], err = service.DecodeResult(in.c, wr); err != nil {
			return out, fmt.Errorf("decode result %d: %w", i, err)
		}
	}
	if out.tests, err = pattern.Read(strings.NewReader(resp.Tests)); err != nil {
		return out, fmt.Errorf("decode tests: %w", err)
	}
	out.stats = resp.Stats
	return out, nil
}

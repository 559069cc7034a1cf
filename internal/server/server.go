// Package server implements mflushd, the simulation-as-a-service
// daemon: campaign Specs arrive over HTTP, expand through the campaign
// engine, and execute on one shared bounded scheduler behind a
// content-addressed result cache, so any job any client ever computed
// is served without re-simulation — across concurrent campaigns and
// across daemon restarts. API.md documents the wire protocol; cmd/mflushd
// is the binary.
//
// The daemon degrades predictably under load: admission control bounds
// the number of jobs in the system (excess submissions get 429 with a
// Retry-After), and SIGTERM drains — in-flight simulations finish and
// persist to the store, nothing new starts.
//
// With Config.Cluster set (mflushd -cluster) the daemon additionally
// coordinates an mflushworker fleet over the /v1/workers endpoints:
// cache misses route to live remote workers through a lease-based
// queue (internal/cluster) and fall back to local simulation when the
// fleet is empty or gone, without changing any client-visible
// behaviour — aggregates stay byte-identical however the jobs were
// placed.
package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config assembles a daemon.
type Config struct {
	// Store backs the content-addressed result cache; nil serves from
	// memory only (results then die with the process).
	Store *campaign.Store
	// Runner executes one simulation; nil means sim.Run. Tests inject
	// counting, blocking or failing runners.
	Runner func(sim.Options) (*sim.Result, error)
	// Workers bounds simulation parallelism across ALL campaigns
	// (<= 0: GOMAXPROCS) — one machine-wide budget, not per campaign.
	Workers int
	// MaxQueuedJobs bounds jobs admitted but not yet finished, across
	// all campaigns; submissions that would exceed it get 429
	// (<= 0: 1024). This is the daemon's explicit backpressure knob.
	MaxQueuedJobs int
	// MaxCampaigns bounds how many campaigns the registry retains
	// (<= 0: 1000). When a submission would exceed it, the oldest
	// *settled* campaigns are forgotten — their IDs start returning
	// 404, but every computed result stays in the cache. Running
	// campaigns are never evicted.
	MaxCampaigns int
	// Cluster, when non-nil, turns the daemon into a fleet coordinator:
	// the /v1/workers endpoints are served, and every cache miss is
	// routed to a live remote worker when one exists — falling back to
	// the local simulator (still bounded by Workers) when the fleet is
	// empty or dies. Admission control, caching and the store work
	// exactly as in single-process mode; only where jobs execute
	// changes. The caller owns the coordinator's lifecycle (Close it
	// after Drain).
	Cluster *cluster.Coordinator
}

// Server is the mflushd HTTP handler plus the shared execution state
// behind it. Create with New; it serves until Drain.
type Server struct {
	cache        *campaign.Cache
	sched        *campaign.Scheduler
	cluster      *cluster.Coordinator // nil: single-process mode
	samples      *sampleHub           // live interval samples, keyed by job
	mux          *http.ServeMux
	registry     *metrics.Registry // /metrics families (server + cluster)
	m            serverMetrics
	maxQueued    int
	maxCampaigns int

	// baseCtx parents every campaign context; stopAll cancels them all
	// (drain). wg tracks campaign goroutines.
	baseCtx context.Context
	stopAll context.CancelFunc
	wg      sync.WaitGroup

	mu        sync.Mutex
	draining  bool
	queued    int // jobs admitted, not yet finished (backpressure)
	nextID    int
	campaigns map[string]*run
	order     []string // campaign IDs in admission order
	// drainTimes is a ring of recent job-completion times;
	// retryAfterLocked derives the queue's observed drain rate from it
	// to size the Retry-After of a 429.
	drainTimes [64]time.Time
	drainIdx   int
	drainCount int
}

// New builds a server from cfg. The returned Server is an http.Handler
// serving root-anchored paths (/v1/..., /healthz) and returning
// root-anchored URLs in responses, so mount it at the server root.
func New(cfg Config) *Server {
	maxQueued := cfg.MaxQueuedJobs
	if maxQueued <= 0 {
		maxQueued = 1024
	}
	maxCampaigns := cfg.MaxCampaigns
	if maxCampaigns <= 0 {
		maxCampaigns = 1000
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cluster:      cfg.Cluster,
		samples:      newSampleHub(),
		maxQueued:    maxQueued,
		maxCampaigns: maxCampaigns,
		baseCtx:      ctx,
		stopAll:      cancel,
		campaigns:    make(map[string]*run),
	}
	if cfg.Cluster != nil {
		// Cluster mode: misses route through the fleet router, and the
		// scheduler pool is sized for the admission queue rather than
		// the core count — a dispatch parked on a remote worker is a
		// cheap wait, and local simulations are bounded inside the
		// router, not by pool goroutines.
		router := cluster.NewRouter(cfg.Cluster, cfg.Workers, cfg.Runner)
		router.OnSample = s.samples.publish
		s.cache = campaign.NewJobCache(cfg.Store, router.Run)
		s.sched = campaign.NewShared(maxQueued)
		// A durable coordinator may have replayed an interrupted
		// campaign from its WAL; rebind that work to this incarnation
		// before the listener opens.
		recovered := cfg.Cluster.Recovered()
		for _, orphan := range recovered.Orphans {
			// Results the dead daemon acknowledged to workers but never
			// confirmed in the store: adopt them now. Idempotent (keyed
			// by content hash) and best-effort — an orphan that fails to
			// land stays in the coordinator's settled set and is
			// re-served through Dispatch instead.
			if cfg.Store != nil {
				if _, ok := cfg.Store.Get(orphan.Key); !ok {
					_ = cfg.Store.Append(orphan)
				}
			}
		}
		s.resumeRecovered(recovered)
	} else {
		// Single-process mode: an executor that streams sampled jobs'
		// live interval points into the hub; everything else is
		// NewCache semantics.
		exec := campaign.Executor{Runner: cfg.Runner, OnSample: s.samples.publish}
		s.cache = campaign.NewJobCache(cfg.Store, exec.Run)
		s.sched = campaign.NewShared(cfg.Workers)
	}
	// The registry needs the cache in place; the coordinator adds the
	// fleet and WAL families when clustering.
	s.registerMetrics()
	if cfg.Cluster != nil {
		cfg.Cluster.RegisterMetrics(s.registry)
	}
	s.mux = http.NewServeMux()
	s.mux.Handle("GET /metrics", s.registry.Handler())
	s.mux.HandleFunc("GET /dashboard", s.handleDashboard)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/cache", s.handleCache)
	if cfg.Cluster != nil {
		s.mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
		s.mux.HandleFunc("GET /v1/workers", s.handleWorkersList)
		s.mux.HandleFunc("POST /v1/workers/{id}/lease", s.handleWorkerLease)
		s.mux.HandleFunc("POST /v1/workers/{id}/results", s.handleWorkerResults)
		s.mux.HandleFunc("DELETE /v1/workers/{id}", s.handleWorkerDeregister)
	}
	return s
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// resumeRecovered re-dispatches the jobs a durable coordinator restored
// from its WAL, so a daemon restart resumes the interrupted campaign on
// its own — no client resubmission required. The dispatcher runs as a
// tracked goroutine (Drain waits for it, and its context cancels with
// everything else): it gives returning workers one lease TTL to
// re-register, then pushes the jobs through the shared scheduler and
// cache exactly like a client campaign — fleet when live, local
// fallback otherwise — so every result lands in the store through the
// single-flight path. Recovered jobs were admitted by the previous
// incarnation, so they bypass admission control rather than competing
// with (and possibly deadlocking behind) fresh submissions.
func (s *Server) resumeRecovered(recovered cluster.Recovery) {
	var jobs []campaign.Job
	for _, wire := range recovered.Jobs {
		j, err := wire.Job()
		if err != nil {
			continue // version skew: the job stays in the WAL for a build that understands it
		}
		jobs = append(jobs, j)
	}
	if len(jobs) == 0 {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		deadline := time.Now().Add(s.cluster.LeaseTTL())
		for time.Now().Before(deadline) && s.cluster.LiveWorkers() == 0 && s.baseCtx.Err() == nil {
			time.Sleep(20 * time.Millisecond)
		}
		if s.baseCtx.Err() != nil {
			return
		}
		// Errors are deterministic simulation failures or a drain; either
		// way the WAL and store already hold everything worth keeping.
		_, _ = s.sched.RunCached(s.baseCtx, jobs, s.cache, nil)
	}()
}

// Drain stops accepting new campaigns (submissions get 503), cancels
// every campaign's scheduling — simulations already in flight finish and
// persist to the store, queued jobs never start — and waits for all
// campaign goroutines to reach a terminal state, or for ctx to expire.
// This is the SIGTERM path of cmd/mflushd.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stopAll()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// handleHealth is the liveness probe.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// submitResponse is the 202 body returned for an admitted campaign.
type submitResponse struct {
	ID   string `json:"id"`
	Jobs int    `json:"jobs"`
	// URLs are the campaign's API locations, for clients that prefer
	// link-following over path construction.
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
	ResultURL string `json:"result_url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := campaign.ReadSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	jobs, err := spec.Jobs()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Only jobs the cache cannot already serve occupy queue capacity:
	// cached jobs cost no simulation, so a fully-cached campaign of any
	// size is admitted even under load. (A job can only gain cache
	// entries between here and execution, never lose them, so the charge
	// is an upper bound.)
	charged := make(map[string]bool)
	for _, j := range jobs {
		if !s.cache.Contains(j) {
			charged[j.Key()] = true
		}
	}
	// A campaign with more uncached jobs than the whole queue can never
	// be admitted, so reject it permanently (no Retry-After) instead of
	// telling the client to retry a request that cannot succeed.
	if len(charged) > s.maxQueued {
		writeError(w, http.StatusBadRequest,
			"campaign expands to %d uncached jobs, more than the daemon's queue capacity %d; split the spec",
			len(charged), s.maxQueued)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new campaigns")
		return
	}
	if s.queued+len(charged) > s.maxQueued {
		queued := s.queued
		retry := s.retryAfterLocked(s.queued+len(charged)-s.maxQueued, time.Now())
		s.mu.Unlock()
		s.m.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests,
			"queue full: %d jobs queued, %d requested, limit %d; retry later",
			queued, len(charged), s.maxQueued)
		return
	}
	s.queued += len(charged)
	s.nextID++
	id := fmt.Sprintf("c%06d", s.nextID)
	c := newRun(id, jobs, time.Now())
	c.charged = charged
	ctx, cancel := context.WithCancel(s.baseCtx)
	c.cancel = cancel
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.evictLocked()
	s.wg.Add(1)
	s.mu.Unlock()
	s.m.submitted.Inc()

	go s.runCampaign(ctx, c)

	base := "/v1/campaigns/" + id
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID: id, Jobs: len(jobs),
		StatusURL: base, EventsURL: base + "/events", ResultURL: base + "/result",
	})
}

// runCampaign executes one admitted campaign on the shared scheduler and
// settles its terminal state.
func (s *Server) runCampaign(ctx context.Context, c *run) {
	defer s.wg.Done()
	defer c.cancel() // release the context once settled
	// Sampled jobs stream live interval points; route the ones belonging
	// to this campaign into its SSE subscribers for as long as it runs.
	// A sampled campaign also publishes its latest interval IPC as a
	// labeled gauge; the child is resolved here, outside every lock the
	// sample path holds, and its series leaves /metrics with the run.
	if len(c.jobNames) > 0 {
		c.ipc = s.m.campaignIPC.WithLabelValues(c.id)
		defer s.m.campaignIPC.Delete(c.id)
	}
	unsubscribe := s.samples.subscribe(c.sampledKeys(), c.onSample)
	defer unsubscribe()
	records, err := s.sched.RunCached(ctx, c.jobs, s.cache, func(p campaign.Progress) {
		// Release the job's admission slot, if it was charged one (jobs
		// already cached at submit never were). Callbacks are serialised,
		// so the map needs no extra locking.
		if key := p.Job.Key(); c.charged[key] {
			delete(c.charged, key)
			s.release(1)
		}
		if p.Err != nil {
			// First failure abandons the campaign's remaining jobs: they
			// would occupy queue slots and machine time for a result the
			// client can no longer use whole. Jobs already simulated are
			// in the cache, so a corrected resubmission reuses them.
			c.cancel()
		}
		c.onProgress(p)
	})
	c.finish(records, err)
	// Jobs skipped by cancellation produced no progress report; give any
	// admission slots still charged to them back. The campaign is
	// settled, so nothing else touches the map.
	s.release(len(c.charged))
}

// evictLocked trims the registry to the retention bound by forgetting
// the oldest settled campaigns; running campaigns are never evicted, so
// the registry can transiently exceed the bound when everything is
// still in flight. The caller holds s.mu.
func (s *Server) evictLocked() {
	if len(s.campaigns) <= s.maxCampaigns {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		settled := false
		select {
		case <-s.campaigns[id].finished:
			settled = true
		default:
		}
		if settled && len(s.campaigns) > s.maxCampaigns {
			delete(s.campaigns, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// release returns n admission slots to the queue bound and stamps the
// completions into the drain-rate ring.
func (s *Server) release(n int) {
	if n == 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.queued -= n
	for i := 0; i < n; i++ {
		s.drainTimes[s.drainIdx] = now
		s.drainIdx = (s.drainIdx + 1) % len(s.drainTimes)
		if s.drainCount < len(s.drainTimes) {
			s.drainCount++
		}
	}
	s.mu.Unlock()
}

// retryAfterLocked estimates how many seconds until need admission
// slots free up, from the observed drain rate: the completions in the
// ring divided by the time they span. No history (a freshly started,
// instantly flooded daemon) or an instantaneous burst both give the
// optimistic 1s floor; the ceiling keeps a stalled queue from parking
// clients for more than a minute between probes. The caller holds s.mu.
func (s *Server) retryAfterLocked(need int, now time.Time) int {
	if s.drainCount == 0 {
		return 1
	}
	oldest := s.drainTimes[(s.drainIdx-s.drainCount+len(s.drainTimes))%len(s.drainTimes)]
	span := now.Sub(oldest)
	if span <= 0 {
		return 1
	}
	rate := float64(s.drainCount) / span.Seconds()
	secs := int(math.Ceil(float64(need) / rate))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// lookup resolves a campaign ID, writing the 404 itself on a miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *run {
	id := r.PathValue("id")
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		writeError(w, http.StatusNotFound, "no campaign %q", id)
	}
	return c
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	writeJSON(w, http.StatusOK, c.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.campaigns[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string][]Status{"campaigns": statuses})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	// Idempotent: cancelling a settled campaign changes nothing.
	c.cancel()
	writeJSON(w, http.StatusAccepted, c.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	st := c.status()
	if st.State != StateDone {
		writeError(w, http.StatusConflict,
			"campaign %s is %s; results are served once it is %q", c.id, st.State, StateDone)
		return
	}
	c.mu.Lock()
	cells := c.cells
	c.mu.Unlock()
	// Encoding errors past this point are client-connection failures:
	// headers are already sent, so there is nothing useful to report.
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = campaign.WriteJSON(w, cells)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_ = campaign.WriteCSV(w, cells)
	case "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = campaign.Table(cells).WriteTo(w)
	case "rows":
		w.Header().Set("Content-Type", "application/json")
		_ = campaign.Table(cells).WriteJSON(w)
	default:
		writeError(w, http.StatusBadRequest,
			"unknown format %q (json, csv, table, rows)", format)
	}
}

// handleEvents streams the campaign's progress as server-sent events: a
// "status" snapshot on connect, a "progress" event per finished job, and
// a terminal event named after the final state. The stream ends after
// the terminal event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	ch := c.subscribe()
	defer c.unsubscribe(ch)
	s.m.sseSubs.Inc()
	defer s.m.sseSubs.Dec()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if writeSSE(w, sseEvent{name: "status", data: c.status()}) != nil {
		return
	}
	fl.Flush()

	for {
		select {
		case ev := <-ch:
			if writeSSE(w, ev) != nil {
				return
			}
			fl.Flush()
			if isTerminalEvent(ev.name) {
				return // terminal event delivered
			}
		case <-c.finished:
			// Drain progress that raced with termination, then emit the
			// terminal snapshot — guaranteed even if broadcasts dropped.
			for {
				select {
				case ev := <-ch:
					if writeSSE(w, ev) != nil {
						return
					}
					if isTerminalEvent(ev.name) {
						fl.Flush()
						return
					}
				default:
					st := c.status()
					if writeSSE(w, sseEvent{name: st.State, data: st}) != nil {
						return
					}
					fl.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// cacheStatus is the /v1/cache body: the store index size and this
// process's hit/miss counters, plus (with ?keys=1) the index itself.
type cacheStatus struct {
	// Entries is the number of distinct results the cache can serve.
	Entries int `json:"entries"`
	// Hits and Misses count this process's cache decisions.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Keys is the sorted content-addressed index, present only when the
	// request asked for it.
	Keys []string `json:"keys,omitempty"`
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.Stats()
	st := cacheStatus{Entries: s.cache.Len(), Hits: hits, Misses: misses}
	if r.URL.Query().Get("keys") != "" {
		st.Keys = s.cache.Keys()
	}
	writeJSON(w, http.StatusOK, st)
}

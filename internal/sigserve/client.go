package sigserve

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// ClientConfig tunes the resilient client. The zero value of every field
// is replaced by the default documented on it.
type ClientConfig struct {
	// Addr is the revserved endpoint ("host:port"). Required unless
	// Addrs is set (Addr then defaults to Addrs[0]).
	Addr string
	// Addrs is the replica set for the tenant in preference order
	// (ring.Replicas). The client sends every request to the first
	// endpoint whose breaker admits it and fails over down the list on
	// transport failure or CodeShutdown. Empty means just Addr.
	Addrs []string
	// MaxRedirects bounds how many CodeWrongShard redirects one request
	// follows before surfacing the error (default 3; guards against
	// mutually-misconfigured shards bouncing a tenant forever).
	MaxRedirects int
	// Tenant names the module namespace to bind (default "default").
	Tenant string
	// LookupMode, when true, serves engine lookups by remote per-entry
	// fetches (batched and coalesced) instead of from the snapshot
	// fetched at open. Verdicts are identical either way; lookup mode
	// trades latency for freshness across server hot swaps.
	LookupMode bool
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// RequestTimeout bounds each request attempt, covering both the
	// write and the response read (default 2s).
	RequestTimeout time.Duration
	// Retries is how many times a failed request is retried before the
	// client gives up (default 3; attempts = Retries+1).
	Retries int
	// BackoffBase is the first retry delay; each retry doubles it, and
	// a uniform jitter of up to the current delay is added (default 2ms).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff delay (default 100ms).
	BackoffMax time.Duration
	// BreakerThreshold is how many consecutive round-trip failures trip
	// the circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// admitting a half-open probe (default 250ms).
	BreakerCooldown time.Duration
	// PoolSize caps the idle connection pool (default 4).
	PoolSize int
	// BatchMax caps how many coalesced lookups ride one batch frame
	// (default 64).
	BatchMax int
	// Telemetry attaches client metrics and trace spans
	// (docs/OBSERVABILITY.md "sigserve metrics"). Nil disables.
	Telemetry *telemetry.Set
}

func (c *ClientConfig) withDefaults() ClientConfig {
	out := *c
	if out.Tenant == "" {
		out.Tenant = "default"
	}
	if len(out.Addrs) == 0 {
		out.Addrs = []string{out.Addr}
	}
	if out.Addr == "" {
		out.Addr = out.Addrs[0]
	}
	if out.MaxRedirects <= 0 {
		out.MaxRedirects = 3
	}
	if out.DialTimeout <= 0 {
		out.DialTimeout = 2 * time.Second
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 2 * time.Second
	}
	if out.Retries < 0 {
		out.Retries = 0
	} else if out.Retries == 0 {
		out.Retries = 3
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = 2 * time.Millisecond
	}
	if out.BackoffMax <= 0 {
		out.BackoffMax = 100 * time.Millisecond
	}
	if out.BreakerThreshold <= 0 {
		out.BreakerThreshold = 5
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = 250 * time.Millisecond
	}
	if out.PoolSize <= 0 {
		out.PoolSize = 4
	}
	if out.BatchMax <= 0 {
		out.BatchMax = 64
	}
	return out
}

// ServerError is a MsgError response surfaced to the caller: the server
// answered, so it is not a transport failure (the breaker does not count
// it), but the request itself was rejected.
type ServerError struct {
	Code   ErrCode
	Detail string
	// RetryAfterMillis echoes the CodeOverloaded backpressure hint
	// (0 when the server sent none).
	RetryAfterMillis uint32
	// Owner echoes the CodeWrongShard owner-address hint.
	Owner string
	// RingEpoch echoes the server's topology generation at rejection.
	RingEpoch uint64
}

// asServerError converts a decoded errorMsg, hints included.
func asServerError(e errorMsg) *ServerError {
	return &ServerError{
		Code: e.Code, Detail: e.Detail,
		RetryAfterMillis: e.RetryAfterMillis, Owner: e.Owner, RingEpoch: e.RingEpoch,
	}
}

// Error renders the server's code and detail string.
func (e *ServerError) Error() string {
	return fmt.Sprintf("sigserve: server error %v: %s", e.Code, e.Detail)
}

// clientTelemetry bundles the client-side metric handles.
type clientTelemetry struct {
	requests  *telemetry.Counter
	retries   *telemetry.Counter
	failures  *telemetry.Counter
	coalesced *telemetry.Counter
	batches   *telemetry.Counter
	deduped   *telemetry.Counter
	batchSize *telemetry.Histogram
	degraded  *telemetry.Counter
	breaker   *telemetry.Gauge
	rtt       *telemetry.Histogram
	queueWait *telemetry.Histogram

	// track carries the client-side request spans. Spans are emitted
	// from whichever goroutine completes a round trip — the dispatcher
	// for channel-fed lookups, the caller for lookupMany and snapshot
	// fetches — but Track is single-writer, so every emission is a
	// pre-measured Complete under trackMu (held only for the ring
	// append).
	track     *telemetry.Track
	trackMu   sync.Mutex
	fetchName telemetry.NameID
	sizeName  telemetry.NameID
	queueName telemetry.NameID
	traceArg  telemetry.NameID
}

// span emits one pre-measured client span tagged with the wire trace ID.
func (ct *clientTelemetry) span(name telemetry.NameID, t0, durNS int64, traceID uint64) {
	if ct == nil || ct.track == nil {
		return
	}
	ct.trackMu.Lock()
	ct.track.Complete(name, t0, durNS, ct.traceArg, traceID)
	ct.trackMu.Unlock()
}

// endpoint is one replica the client can reach: its address, its own
// circuit breaker, its own idle-connection pool, and a drain mark set
// when the replica answered CodeShutdown (skipped until the mark
// expires, so failover sticks while a shard restarts).
type endpoint struct {
	addr string
	br   *breaker

	mu           sync.Mutex
	idle         []net.Conn
	drainedUntil time.Time
}

// Client is a resilient connection to one revserved tenant namespace:
// per-endpoint pooled connections and circuit breakers, replica
// failover in preference order, per-request deadlines, retries with
// exponential backoff and jitter, and a batching dispatcher that
// coalesces concurrent identical lookups. Safe for concurrent use by
// any number of engines.
type Client struct {
	cfg   ClientConfig
	reqID atomic.Uint64
	// serverEpoch is the highest table generation any response has
	// reported; RemoteSource compares it with its cache epoch to mark
	// degraded verdicts stale.
	serverEpoch atomic.Uint64
	// ringEpoch is the newest topology generation any Welcome, error
	// hint, or topology response has reported (Client.RingEpoch).
	ringEpoch atomic.Uint64
	// negotiated is the protocol version the server's Welcome named
	// (0 before first contact), reported by NegotiatedVersion.
	negotiated atomic.Uint32
	// traceSeq feeds newTraceID when tracing is on.
	traceSeq atomic.Uint64

	// eps is the endpoint preference list: the configured replica set,
	// reordered when a CodeWrongShard redirect promotes the true owner
	// to the front. epMu guards the slice, not the endpoints.
	epMu   sync.Mutex
	eps    []*endpoint
	closed bool

	jmu sync.Mutex
	rng *rand.Rand

	// Lookup coalescing: one pending per distinct in-flight query.
	inflightMu sync.Mutex
	inflight   map[lookupKey]*pendingLookup
	lookupCh   chan *pendingLookup
	dispatchWG sync.WaitGroup
	stopCh     chan struct{}
	startOnce  sync.Once

	tel *clientTelemetry
}

// NewClient builds a client. No connection is made until the first
// request; use Ping to verify reachability eagerly.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" && len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("sigserve: ClientConfig.Addr or Addrs is required")
	}
	c := &Client{
		cfg:      cfg.withDefaults(),
		inflight: make(map[lookupKey]*pendingLookup),
		stopCh:   make(chan struct{}),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, addr := range c.cfg.Addrs {
		if addr == "" {
			return nil, fmt.Errorf("sigserve: empty address in ClientConfig.Addrs")
		}
		c.eps = append(c.eps, &endpoint{
			addr: addr,
			br:   newBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown),
		})
	}
	c.lookupCh = make(chan *pendingLookup, 4*c.cfg.BatchMax)
	if reg := c.cfg.Telemetry.Registry(); reg != nil {
		c.tel = &clientTelemetry{
			requests:  reg.Counter("sigserve_client_requests_total", "round trips attempted"),
			retries:   reg.Counter("sigserve_client_retries_total", "request attempts beyond the first"),
			failures:  reg.Counter("sigserve_client_failures_total", "round trips that exhausted retries"),
			coalesced: reg.Counter("sigserve_client_coalesced_total", "lookups answered by an already in-flight twin"),
			batches:   reg.Counter("sigserve_client_batches_total", "batch frames dispatched"),
			deduped:   reg.Counter("sigserve_client_batch_deduped_total", "duplicate queries folded out of batch calls before encode"),
			batchSize: reg.Histogram("sigserve_client_batch_size", "queries per dispatched batch frame"),
			degraded:  reg.Counter("sigserve_client_degraded_lookups_total", "lookups served from the stale local cache"),
			breaker:   reg.Gauge("sigserve_client_breaker_state", "circuit breaker state (0 closed, 1 open, 2 half-open)"),
			rtt:       reg.Histogram("sigserve_client_rtt_ns", "request round-trip time, ns"),
			queueWait: reg.Histogram("sigserve_client_queue_wait_ns", "lookup wait between enqueue and batch dispatch, ns"),
		}
	}
	if rec := c.cfg.Telemetry.Recorder(); rec != nil {
		c.tel2init(rec)
	}
	return c, nil
}

// tel2init attaches the trace track (separate so metrics-only Sets work).
func (c *Client) tel2init(rec *telemetry.Recorder) {
	if c.tel == nil {
		c.tel = &clientTelemetry{}
	}
	c.tel.track = rec.Track(c.cfg.Telemetry.TrackName("sigserve/client"))
	c.tel.fetchName = rec.Name("remote-fetch")
	c.tel.sizeName = rec.Name("batch")
	c.tel.queueName = rec.Name("queue-wait")
	c.tel.traceArg = rec.Name("trace")
}

// newTraceID mints the wire trace ID for one logical request: non-zero
// only when tracing is attached, stable across that request's retries.
// IDs only need to be unique within the trace window, so a scrambled
// counter (splitmix64) is enough — no global randomness.
func (c *Client) newTraceID() uint64 {
	if c.tel == nil || c.tel.track == nil {
		return 0
	}
	z := c.traceSeq.Add(1) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	if z = z ^ (z >> 31); z != 0 {
		return z
	}
	return 1 // 0 means "untraced" on the wire
}

// Close tears down the dispatcher and every pooled connection. Lookups
// in flight fail with ErrUnavailable-wrapped errors.
func (c *Client) Close() error {
	c.epMu.Lock()
	if c.closed {
		c.epMu.Unlock()
		return nil
	}
	c.closed = true
	eps := c.eps
	c.epMu.Unlock()
	close(c.stopCh)
	for _, ep := range eps {
		ep.mu.Lock()
		idle := ep.idle
		ep.idle = nil
		ep.mu.Unlock()
		for _, conn := range idle {
			conn.Close()
		}
	}
	c.dispatchWG.Wait()
	return nil
}

// ServerEpoch returns the newest table generation the server has
// reported on any response (0 before first contact).
func (c *Client) ServerEpoch() uint64 { return c.serverEpoch.Load() }

// RingEpoch returns the newest topology generation any response has
// reported (0 before first contact or against an unsharded server).
func (c *Client) RingEpoch() uint64 { return c.ringEpoch.Load() }

// BreakerState exposes the preferred endpoint's circuit breaker
// position (for reports).
func (c *Client) BreakerState() BreakerState {
	c.epMu.Lock()
	ep := c.eps[0]
	c.epMu.Unlock()
	return ep.br.State()
}

// Endpoints returns the client's current endpoint preference order:
// the configured replica set, with any redirect-discovered owner
// promoted to the front.
func (c *Client) Endpoints() []string {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	out := make([]string, len(c.eps))
	for i, ep := range c.eps {
		out[i] = ep.addr
	}
	return out
}

// ---- connection pool -------------------------------------------------

// dial opens and handshakes one connection to the endpoint.
func (c *Client) dial(ep *endpoint) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", ep.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(c.cfg.RequestTimeout))
	hello := helloMsg{MinVersion: Version, MaxVersion: Version, Tenant: c.cfg.Tenant}
	if err := WriteFrame(conn, Frame{Version: Version, Type: MsgHello, ReqID: c.reqID.Add(1), Payload: hello.encode()}); err != nil {
		conn.Close()
		return nil, err
	}
	f, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	switch f.Type {
	case MsgWelcome:
		w, err := decodeWelcome(f.Payload)
		if err != nil {
			conn.Close()
			return nil, err
		}
		// The client offered only Version; a Welcome naming any other
		// version is a malformed answer, not a negotiation outcome.
		if w.Version != Version {
			conn.Close()
			return nil, fmt.Errorf("sigserve: server chose version %d, client offered only %d", w.Version, Version)
		}
		c.negotiated.Store(uint32(w.Version))
		c.observeEpoch(w.Epoch)
		c.observeRing(w.RingEpoch)
		conn.SetDeadline(time.Time{})
		return conn, nil
	case MsgError:
		e, derr := decodeError(f.Payload)
		conn.Close()
		if derr != nil {
			return nil, derr
		}
		c.observeRing(e.RingEpoch)
		return nil, asServerError(e)
	default:
		conn.Close()
		return nil, fmt.Errorf("sigserve: handshake answered with %#x", uint8(f.Type))
	}
}

func (c *Client) getConn(ep *endpoint) (net.Conn, error) {
	c.epMu.Lock()
	closed := c.closed
	c.epMu.Unlock()
	if closed {
		return nil, fmt.Errorf("sigserve: client closed: %w", sigtable.ErrUnavailable)
	}
	ep.mu.Lock()
	if n := len(ep.idle); n > 0 {
		conn := ep.idle[n-1]
		ep.idle = ep.idle[:n-1]
		ep.mu.Unlock()
		return conn, nil
	}
	ep.mu.Unlock()
	return c.dial(ep)
}

func (c *Client) putConn(ep *endpoint, conn net.Conn) {
	c.epMu.Lock()
	closed := c.closed
	c.epMu.Unlock()
	ep.mu.Lock()
	if !closed && len(ep.idle) < c.cfg.PoolSize {
		ep.idle = append(ep.idle, conn)
		ep.mu.Unlock()
		return
	}
	ep.mu.Unlock()
	conn.Close()
}

// ---- resilient round trip --------------------------------------------

// backoff returns the sleep before retry attempt n (1-based):
// exponential from BackoffBase, capped at BackoffMax, plus uniform
// jitter of up to the pre-jitter delay.
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.BackoffBase << (n - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	c.jmu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d) + 1))
	c.jmu.Unlock()
	return d + j
}

// roundTrip sends one request with the full resilience stack, minting a
// fresh trace ID when tracing is attached.
func (c *Client) roundTrip(typ MsgType, payload []byte) (Frame, error) {
	return c.roundTripTraced(typ, payload, c.newTraceID())
}

// roundTripTraced sends one request with the full resilience stack and
// returns the matching response frame. A non-zero traceID rides the
// request as the FlagTraced payload prefix, stable across retries so
// client and server spans line up. A MsgError response is returned as a
// *ServerError and counts as transport success for the endpoint's
// breaker.
func (c *Client) roundTripTraced(typ MsgType, payload []byte, traceID uint64) (Frame, error) {
	start := time.Now()
	f, err := c.attempts(typ, payload, traceID)
	c.noteBreaker()
	if c.tel != nil && c.tel.rtt != nil {
		c.tel.rtt.Observe(uint64(time.Since(start)))
	}
	if err != nil {
		if _, isServer := errAsServer(err); isServer {
			return Frame{}, err // definitive rejection, transport healthy
		}
		if c.tel != nil && c.tel.failures != nil {
			c.tel.failures.Inc()
		}
		return Frame{}, fmt.Errorf("%w: %v", sigtable.ErrUnavailable, err)
	}
	return f, nil
}

func errAsServer(err error) (*ServerError, bool) {
	se, ok := err.(*ServerError)
	return se, ok
}

// epOutcome tracks one endpoint admitted during a round trip and the
// latest outcome observed on it. The breaker sees exactly one Report
// per admitted endpoint per round trip — retries within the call
// aggregate, matching the single-endpoint client's behavior — and the
// Allow/Report pairing the breaker requires holds by construction.
type epOutcome struct {
	ep *endpoint
	ok bool
}

// pick returns the first usable endpoint in preference order, skipping
// drain-marked endpoints and any in skip. An endpoint already admitted
// this round trip (present in admitted) is reused without a second
// breaker Allow; otherwise the breaker must admit it, and the caller
// owes its breaker one aggregated Report.
func (c *Client) pick(admitted []epOutcome, skip map[string]bool) (*endpoint, bool) {
	c.epMu.Lock()
	eps := append([]*endpoint(nil), c.eps...)
	c.epMu.Unlock()
	now := time.Now()
	for _, ep := range eps {
		if skip[ep.addr] {
			continue
		}
		ep.mu.Lock()
		draining := ep.drainedUntil.After(now)
		ep.mu.Unlock()
		if draining {
			continue
		}
		for _, a := range admitted {
			if a.ep == ep {
				return ep, false
			}
		}
		if ep.br.Allow() == nil {
			return ep, true
		}
	}
	return nil, false
}

// promote moves the endpoint for addr to the front of the preference
// list, adding it if a CodeWrongShard redirect named a shard the
// client was not configured with.
func (c *Client) promote(addr string) {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	for i, ep := range c.eps {
		if ep.addr == addr {
			copy(c.eps[1:i+1], c.eps[:i])
			c.eps[0] = ep
			return
		}
	}
	ep := &endpoint{addr: addr, br: newBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)}
	c.eps = append([]*endpoint{ep}, c.eps...)
}

// alternates counts the endpoints pick could still try if failed were
// skipped: not already skipped, not drain-marked, and not sitting
// behind an open breaker. Consuming the failed endpoint is only free
// when one of these exists — otherwise a transient transport error
// would burn the sole usable endpoint and fail the call with retry
// budget left.
func (c *Client) alternates(failed *endpoint, skip map[string]bool) int {
	c.epMu.Lock()
	eps := append([]*endpoint(nil), c.eps...)
	c.epMu.Unlock()
	now := time.Now()
	n := 0
	for _, ep := range eps {
		if ep == failed || skip[ep.addr] {
			continue
		}
		ep.mu.Lock()
		draining := ep.drainedUntil.After(now)
		ep.mu.Unlock()
		if draining || ep.br.State() == BreakerOpen {
			continue
		}
		n++
	}
	return n
}

// markDrained skips the endpoint for one breaker cooldown after it
// answered CodeShutdown, so failover sticks while the shard restarts.
func (c *Client) markDrained(ep *endpoint) {
	ep.mu.Lock()
	ep.drainedUntil = time.Now().Add(c.cfg.BreakerCooldown)
	ep.mu.Unlock()
}

// attempts runs the failover/retry loop for one request. Three budgets
// bound it: transport failures consume the retry budget (with backoff),
// CodeShutdown answers consume the endpoint (skipped for the rest of
// the call — failover is free), and CodeWrongShard redirects consume
// MaxRedirects. Every other ServerError is definitive and returns
// immediately; CodeOverloaded consumes a retry after sleeping the
// server's retry-after hint.
func (c *Client) attempts(typ MsgType, payload []byte, traceID uint64) (Frame, error) {
	var lastErr error
	var skip map[string]bool
	var admitted []epOutcome
	defer func() {
		for _, a := range admitted {
			a.ep.br.Report(a.ok)
		}
	}()
	note := func(ep *endpoint, fresh, ok bool) {
		if fresh {
			admitted = append(admitted, epOutcome{ep: ep, ok: ok})
			return
		}
		for i := range admitted {
			if admitted[i].ep == ep {
				admitted[i].ok = ok
				return
			}
		}
	}
	attempt, redirects := 0, 0
	for {
		ep, fresh := c.pick(admitted, skip)
		if ep == nil {
			if lastErr == nil {
				lastErr = errBreakerOpen
			}
			return Frame{}, lastErr
		}
		if c.tel != nil && c.tel.requests != nil {
			c.tel.requests.Inc()
		}
		f, err := c.once(ep, typ, payload, traceID)
		if err == nil {
			note(ep, fresh, true)
			return f, nil
		}
		se, isServer := errAsServer(err)
		if !isServer {
			note(ep, fresh, false)
			lastErr = err
			// With another replica available, a dead transport fails
			// over like a draining one — the endpoint is consumed for
			// the rest of the call and the retry budget is untouched,
			// so a retry-after sleep on a healthy replica can never
			// leave the call without budget to route around a corpse.
			// No usable alternate (drained and breaker-open replicas
			// don't count) keeps the retry-with-backoff behavior, as
			// before.
			if c.alternates(ep, skip) > 0 {
				if skip == nil {
					skip = make(map[string]bool)
				}
				skip[ep.addr] = true
				continue
			}
			attempt++
			if attempt > c.cfg.Retries {
				return Frame{}, lastErr
			}
			if c.tel != nil && c.tel.retries != nil {
				c.tel.retries.Inc()
			}
			time.Sleep(c.backoff(attempt))
			continue
		}
		// The server answered: the transport is healthy either way.
		note(ep, fresh, true)
		switch se.Code {
		case CodeShutdown:
			// Replica is draining: fail over down the preference list
			// without spending the retry budget.
			c.markDrained(ep)
			if skip == nil {
				skip = make(map[string]bool)
			}
			skip[ep.addr] = true
			lastErr = se
		case CodeWrongShard:
			c.observeRing(se.RingEpoch)
			if se.Owner == "" || redirects >= c.cfg.MaxRedirects {
				return Frame{}, se
			}
			redirects++
			c.promote(se.Owner)
			lastErr = se
		case CodeOverloaded:
			attempt++
			if attempt > c.cfg.Retries {
				return Frame{}, se
			}
			if c.tel != nil && c.tel.retries != nil {
				c.tel.retries.Inc()
			}
			if se.RetryAfterMillis > 0 {
				time.Sleep(time.Duration(se.RetryAfterMillis) * time.Millisecond)
			} else {
				time.Sleep(c.backoff(attempt))
			}
			lastErr = se
		default:
			return Frame{}, se // definitive rejection; retrying cannot help
		}
	}
}

// once performs a single request attempt over one pooled connection to
// the endpoint; a non-zero trace ID marks the frame FlagTraced.
func (c *Client) once(ep *endpoint, typ MsgType, payload []byte, traceID uint64) (Frame, error) {
	conn, err := c.getConn(ep)
	if err != nil {
		return Frame{}, err
	}
	id := c.reqID.Add(1)
	deadline := time.Now().Add(c.cfg.RequestTimeout)
	conn.SetDeadline(deadline)
	var flags uint16
	if traceID != 0 {
		flags = FlagTraced
		payload = withTrace(traceID, payload)
	}
	if err := WriteFrame(conn, Frame{Version: Version, Type: typ, Flags: flags, ReqID: id, Payload: payload}); err != nil {
		conn.Close()
		return Frame{}, err
	}
	f, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		return Frame{}, err
	}
	if f.ReqID != id {
		conn.Close()
		return Frame{}, fmt.Errorf("sigserve: response id %d for request %d", f.ReqID, id)
	}
	conn.SetDeadline(time.Time{})
	if f.Type == MsgError {
		e, derr := decodeError(f.Payload)
		if derr != nil {
			conn.Close()
			return Frame{}, derr
		}
		// The server tears the connection down after CodeShutdown and
		// CodeWrongShard; pooling it would hand a later request a dead
		// conn.
		if e.Code == CodeShutdown || e.Code == CodeWrongShard {
			conn.Close()
		} else {
			c.putConn(ep, conn)
		}
		c.observeRing(e.RingEpoch)
		return Frame{}, asServerError(e)
	}
	c.putConn(ep, conn)
	return f, nil
}

func (c *Client) observeEpoch(e uint64) {
	for {
		cur := c.serverEpoch.Load()
		if e <= cur || c.serverEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// observeRing folds a reported topology generation into the client's
// high-water mark (0 reports are ignored).
func (c *Client) observeRing(e uint64) {
	for {
		cur := c.ringEpoch.Load()
		if e <= cur || c.ringEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

func (c *Client) noteBreaker() {
	if c.tel == nil || c.tel.breaker == nil {
		return
	}
	c.tel.breaker.Set(int64(c.BreakerState()))
}

// ---- request helpers -------------------------------------------------

// Ping verifies the endpoint answers (dialing if necessary).
func (c *Client) Ping() error {
	f, err := c.roundTrip(MsgPing, nil)
	if err != nil {
		return err
	}
	if f.Type != MsgPong {
		return fmt.Errorf("sigserve: ping answered with %#x", uint8(f.Type))
	}
	return nil
}

// NegotiatedVersion returns the protocol version the server's Welcome
// named (0 before first contact).
func (c *Client) NegotiatedVersion() uint8 { return uint8(c.negotiated.Load()) }

// EvidenceAck reports what the server did with an uploaded stream.
type EvidenceAck struct {
	// Bytes is the retained stream length.
	Bytes uint64
	// Evicted is how many older streams retention dropped to make room.
	Evicted int
}

// UploadEvidence uploads one attestation evidence stream (the bytes an
// evidence.Emitter wrote) under a name in the tenant's namespace.
func (c *Client) UploadEvidence(name string, stream []byte) (EvidenceAck, error) {
	f, err := c.roundTrip(MsgEvidencePut, evidencePutMsg{Name: name, Stream: stream}.encode())
	if err != nil {
		return EvidenceAck{}, err
	}
	if f.Type != MsgEvidenceAck {
		return EvidenceAck{}, fmt.Errorf("sigserve: evidence upload answered with %#x", uint8(f.Type))
	}
	ack, err := decodeEvidenceAck(f.Payload)
	if err != nil {
		return EvidenceAck{}, err
	}
	return EvidenceAck{Bytes: ack.Bytes, Evicted: int(ack.Evicted)}, nil
}

// EvidenceInfo is one catalogue entry from ListEvidence.
type EvidenceInfo struct {
	// Name is the upload name.
	Name string
	// Bytes is the retained stream length.
	Bytes uint64
}

// ListEvidence lists the tenant's retained evidence streams, oldest
// first.
func (c *Client) ListEvidence() ([]EvidenceInfo, error) {
	f, err := c.roundTrip(MsgEvidenceList, nil)
	if err != nil {
		return nil, err
	}
	if f.Type != MsgEvidenceCatalog {
		return nil, fmt.Errorf("sigserve: evidence list answered with %#x", uint8(f.Type))
	}
	cat, err := decodeEvidenceCatalog(f.Payload)
	if err != nil {
		return nil, err
	}
	out := make([]EvidenceInfo, len(cat.Streams))
	for i, s := range cat.Streams {
		out[i] = EvidenceInfo{Name: s.Name, Bytes: s.Bytes}
	}
	return out, nil
}

// FetchEvidence fetches one retained evidence stream by name, for
// offline verification (cmd/revattest -fetch). An unknown name
// surfaces as a *ServerError with CodeUnknownEvidence.
func (c *Client) FetchEvidence(name string) ([]byte, error) {
	f, err := c.roundTrip(MsgEvidenceGet, evidenceGetMsg{Name: name}.encode())
	if err != nil {
		return nil, err
	}
	if f.Type != MsgEvidenceData {
		return nil, fmt.Errorf("sigserve: evidence fetch answered with %#x", uint8(f.Type))
	}
	data, err := decodeEvidenceData(f.Payload)
	if err != nil {
		return nil, err
	}
	return data.Stream, nil
}

// ModuleMeta is one catalogue entry from Modules.
type ModuleMeta struct {
	// Table is the module's signature-table metadata, including the
	// base the serving side assigned.
	Table sigtable.Table
	// Epoch is the table's publish generation.
	Epoch uint64
}

// Modules lists the tenant's published modules.
func (c *Client) Modules() ([]ModuleMeta, error) {
	f, err := c.roundTrip(MsgModules, nil)
	if err != nil {
		return nil, err
	}
	if f.Type != MsgModuleList {
		return nil, fmt.Errorf("sigserve: modules answered with %#x", uint8(f.Type))
	}
	list, err := decodeModuleList(f.Payload)
	if err != nil {
		return nil, err
	}
	out := make([]ModuleMeta, len(list.Modules))
	for i, m := range list.Modules {
		out[i] = ModuleMeta{Table: m.Table, Epoch: m.Epoch}
	}
	return out, nil
}

// FetchSnapshot pulls one module's full decrypted table and reconstructs
// an immutable local snapshot, returning it with its metadata and
// publish epoch.
func (c *Client) FetchSnapshot(module string) (*sigtable.Snapshot, sigtable.Table, uint64, error) {
	traceID := c.newTraceID()
	if c.tel != nil && c.tel.track != nil {
		t0 := c.tel.track.Now()
		defer func() { c.tel.span(c.tel.fetchName, t0, c.tel.track.Now()-t0, traceID) }()
	}
	f, err := c.roundTripTraced(MsgSnapshot, snapshotReq{Module: module}.encode(), traceID)
	if err != nil {
		return nil, sigtable.Table{}, 0, err
	}
	if f.Type != MsgSnapshotData {
		return nil, sigtable.Table{}, 0, fmt.Errorf("sigserve: snapshot answered with %#x", uint8(f.Type))
	}
	data, err := decodeSnapshotData(f.Payload)
	if err != nil {
		return nil, sigtable.Table{}, 0, err
	}
	snap, err := sigtable.SnapshotFromWire(data.Table, data.Recs)
	if err != nil {
		return nil, sigtable.Table{}, 0, err
	}
	c.observeEpoch(data.Epoch)
	return snap, data.Table, data.Epoch, nil
}

// Topology is one shard's reported view of control-plane membership
// (FetchTopology).
type Topology struct {
	// RingEpoch is the topology generation (0 = unsharded server).
	RingEpoch uint64
	// Replicas is the replica-set size per tenant namespace.
	Replicas int
	// VNodes is the per-shard virtual-node count.
	VNodes int
	// Self is the responding shard's ring ID ("" when unsharded).
	Self string
	// Nodes is the membership, sorted by ID (empty when unsharded).
	Nodes []RingNode
}

// FetchTopology asks the connected shard for the control plane's
// membership, so a client bootstrapped with a single address can
// discover — and build the ring over — the rest of the plane.
func (c *Client) FetchTopology() (Topology, error) {
	f, err := c.roundTrip(MsgTopology, nil)
	if err != nil {
		return Topology{}, err
	}
	if f.Type != MsgTopologyData {
		return Topology{}, fmt.Errorf("sigserve: topology answered with %#x", uint8(f.Type))
	}
	data, err := decodeTopologyData(f.Payload)
	if err != nil {
		return Topology{}, err
	}
	c.observeRing(data.RingEpoch)
	return Topology{
		RingEpoch: data.RingEpoch,
		Replicas:  int(data.Replicas),
		VNodes:    int(data.VNodes),
		Self:      data.Self,
		Nodes:     data.Nodes,
	}, nil
}

// fetchSnapshotDelta asks for the records changed since the generation
// the caller holds (RemoteSource.Refresh drives it and applies the
// patches).
func (c *Client) fetchSnapshotDelta(module string, haveEpoch, haveHash uint64) (snapshotDeltaData, error) {
	f, err := c.roundTrip(MsgSnapshotDelta,
		snapshotDeltaReq{Module: module, HaveEpoch: haveEpoch, HaveHash: haveHash}.encode())
	if err != nil {
		return snapshotDeltaData{}, err
	}
	if f.Type != MsgSnapshotDeltaData {
		return snapshotDeltaData{}, fmt.Errorf("sigserve: snapshot delta answered with %#x", uint8(f.Type))
	}
	data, err := decodeSnapshotDeltaData(f.Payload)
	if err != nil {
		return snapshotDeltaData{}, err
	}
	c.observeEpoch(data.Epoch)
	return data, nil
}

// ---- lookup coalescing + batching ------------------------------------

// lookupKey identifies a query for coalescing: all request fields.
type lookupKey struct {
	module          string
	kind, wantFlags uint8
	end, sig        uint64
	target, pred    uint64
}

// keyOf derives the coalescing key from a request (all request fields,
// so two queries coalesce only when the server's answer — including the
// touched-address list — is guaranteed identical).
func keyOf(req lookupReq) lookupKey {
	return lookupKey{
		module: req.Module, kind: req.Kind, wantFlags: req.WantFlags,
		end: req.End, sig: req.Sig, target: req.Target, pred: req.Pred,
	}
}

// pendingLookup is one in-flight coalesced query.
type pendingLookup struct {
	key  lookupKey
	req  lookupReq
	done chan struct{}
	res  lookupRes
	err  error
	// enq is when the owner registered the query (zero when telemetry
	// is off); doBatch turns it into the queue-wait histogram and span.
	enq time.Time
}

// lookup resolves one query remotely, coalescing with identical
// in-flight queries and batching with concurrent distinct ones.
func (c *Client) lookup(req lookupReq) (lookupRes, error) {
	c.startOnce.Do(func() {
		c.dispatchWG.Add(1)
		go c.dispatch()
	})
	key := keyOf(req)
	c.inflightMu.Lock()
	if p := c.inflight[key]; p != nil {
		c.inflightMu.Unlock()
		if c.tel != nil && c.tel.coalesced != nil {
			c.tel.coalesced.Inc()
		}
		<-p.done
		return p.res, p.err
	}
	p := &pendingLookup{key: key, req: req, done: make(chan struct{})}
	if c.tel != nil {
		p.enq = time.Now()
	}
	c.inflight[key] = p
	c.inflightMu.Unlock()
	select {
	case c.lookupCh <- p:
	case <-c.stopCh:
		c.finish([]*pendingLookup{p}, nil, fmt.Errorf("sigserve: client closed: %w", sigtable.ErrUnavailable))
	}
	<-p.done
	return p.res, p.err
}

// dispatch drains the lookup channel, packing concurrent queries into
// batch frames of up to BatchMax.
func (c *Client) dispatch() {
	defer c.dispatchWG.Done()
	for {
		select {
		case <-c.stopCh:
			c.failQueued()
			return
		case p := <-c.lookupCh:
			batch := []*pendingLookup{p}
			for len(batch) < c.cfg.BatchMax {
				select {
				case q := <-c.lookupCh:
					batch = append(batch, q)
				default:
					goto full
				}
			}
		full:
			c.doBatch(batch)
		}
	}
}

// failQueued drains any queued lookups after stop.
func (c *Client) failQueued() {
	err := fmt.Errorf("sigserve: client closed: %w", sigtable.ErrUnavailable)
	for {
		select {
		case p := <-c.lookupCh:
			c.finish([]*pendingLookup{p}, nil, err)
		default:
			return
		}
	}
}

// lookupMany resolves many queries with one batch pass: duplicates
// within the call are folded onto a single wire slot before encode,
// queries already in flight (from any caller) are coalesced onto the
// existing pending, and the remainder is dispatched directly as batch
// frames of up to BatchMax. Results and errors are fanned back out to
// every input position, duplicates included. Unlike lookup, the wire
// trip happens on the calling goroutine — the prefetcher's batch is
// already assembled, so funneling it through the dispatcher would only
// add queueing.
func (c *Client) lookupMany(reqs []lookupReq) ([]lookupRes, []error) {
	pend := make([]*pendingLookup, len(reqs))
	var owned []*pendingLookup
	seen := make(map[lookupKey]*pendingLookup, len(reqs))
	var dups, coalesced uint64
	c.inflightMu.Lock()
	for i, req := range reqs {
		key := keyOf(req)
		if p := seen[key]; p != nil {
			pend[i] = p
			dups++
			continue
		}
		if p := c.inflight[key]; p != nil {
			pend[i] = p
			seen[key] = p
			coalesced++
			continue
		}
		p := &pendingLookup{key: key, req: req, done: make(chan struct{})}
		if c.tel != nil {
			p.enq = time.Now()
		}
		c.inflight[key] = p
		seen[key] = p
		owned = append(owned, p)
		pend[i] = p
	}
	c.inflightMu.Unlock()
	if c.tel != nil {
		if c.tel.deduped != nil && dups > 0 {
			c.tel.deduped.Add(dups)
		}
		if c.tel.coalesced != nil && coalesced > 0 {
			c.tel.coalesced.Add(coalesced)
		}
	}
	for start := 0; start < len(owned); start += c.cfg.BatchMax {
		end := start + c.cfg.BatchMax
		if end > len(owned) {
			end = len(owned)
		}
		c.doBatch(owned[start:end])
	}
	res := make([]lookupRes, len(reqs))
	errs := make([]error, len(reqs))
	for i, p := range pend {
		<-p.done
		res[i], errs[i] = p.res, p.err
	}
	return res, errs
}

// doBatch performs one batch round trip and distributes the results.
// It runs on the dispatcher goroutine for channel-fed lookups and on
// the caller's goroutine for lookupMany, so all span emission goes
// through the mutex-guarded clientTelemetry.span.
func (c *Client) doBatch(batch []*pendingLookup) {
	traceID := c.newTraceID()
	now := time.Now()
	if c.tel != nil {
		if c.tel.batches != nil {
			c.tel.batches.Inc()
		}
		if c.tel.batchSize != nil {
			c.tel.batchSize.Observe(uint64(len(batch)))
		}
		// Queue wait: enqueue-to-dispatch, per pending; the span covers
		// the longest-waiting member so the trace shows the full stall.
		var maxWait time.Duration
		for _, p := range batch {
			if p.enq.IsZero() {
				continue
			}
			w := now.Sub(p.enq)
			if w < 0 {
				w = 0
			}
			if c.tel.queueWait != nil {
				c.tel.queueWait.Observe(uint64(w))
			}
			if w > maxWait {
				maxWait = w
			}
		}
		if c.tel.track != nil {
			if maxWait > 0 {
				t1 := c.tel.track.Now()
				c.tel.span(c.tel.queueName, t1-maxWait.Nanoseconds(), maxWait.Nanoseconds(), traceID)
			}
			t0 := c.tel.track.Now()
			defer func() { c.tel.span(c.tel.fetchName, t0, c.tel.track.Now()-t0, traceID) }()
		}
	}
	reqs := lookupBatch{Reqs: make([]lookupReq, len(batch))}
	for i, p := range batch {
		reqs.Reqs[i] = p.req
	}
	f, err := c.roundTripTraced(MsgLookupBatch, reqs.encode(), traceID)
	if err != nil {
		c.finish(batch, nil, err)
		return
	}
	if f.Type != MsgLookupBatchResult {
		c.finish(batch, nil, fmt.Errorf("%w: batch answered with %#x", sigtable.ErrUnavailable, uint8(f.Type)))
		return
	}
	res, err := decodeLookupBatchRes(f.Payload)
	if err != nil || len(res.Res) != len(batch) {
		if err == nil {
			err = fmt.Errorf("batch returned %d results for %d requests", len(res.Res), len(batch))
		}
		c.finish(batch, nil, fmt.Errorf("%w: %v", sigtable.ErrUnavailable, err))
		return
	}
	c.finish(batch, res.Res, nil)
}

// finish resolves a batch: res[i] per pending when err is nil, the
// shared error otherwise. Pendings are unregistered before waiters wake
// so later identical queries fetch fresh.
func (c *Client) finish(batch []*pendingLookup, res []lookupRes, err error) {
	c.inflightMu.Lock()
	for _, p := range batch {
		if c.inflight[p.key] == p {
			delete(c.inflight, p.key)
		}
	}
	c.inflightMu.Unlock()
	for i, p := range batch {
		if err != nil {
			p.err = err
		} else {
			p.res = res[i]
		}
		close(p.done)
	}
}

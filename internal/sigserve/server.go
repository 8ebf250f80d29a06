package sigserve

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rev/internal/chash"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// publishedTable is one immutable published generation of a module's
// table: metadata, the shared decrypted snapshot, its wire encoding
// (rendered once at publish time so snapshot fetches are a copy-free
// write), and the generation counter. Hot swap replaces the whole value
// through an atomic pointer; in-flight requests keep serving the
// generation they loaded.
type publishedTable struct {
	table sigtable.Table
	snap  *sigtable.Snapshot
	wire  []byte
	epoch uint64

	// hash chains snapshot generations for delta distribution
	// (snapHash of wire); prevEpoch/prevHash name the generation
	// patches was diffed against (patches nil when no delta exists —
	// first publish, format change, or too many changed records).
	hash      uint64
	prevEpoch uint64
	prevHash  uint64
	patches   []deltaPatch
}

// tenant is one namespace of modules. Module sets are fixed after the
// first Publish of each name, but each module's table may be hot-swapped
// at any time. Each tenant also retains a bounded set of uploaded
// attestation evidence streams (MsgEvidencePut), evicting oldest-first.
type tenant struct {
	mu      sync.RWMutex
	modules map[string]*atomic.Pointer[publishedTable]

	emu      sync.Mutex
	evidence map[string][]byte
	evOrder  []string // upload order; front is evicted first
	evBytes  uint64
}

func (t *tenant) slot(module string) *atomic.Pointer[publishedTable] {
	t.mu.RLock()
	p := t.modules[module]
	t.mu.RUnlock()
	return p
}

// Server hosts signature tables for any number of tenants and serves the
// wire protocol over a net.Listener. All methods are safe for concurrent
// use; Publish may be called while connections are live (hot swap).
type Server struct {
	mu      sync.Mutex
	tenants map[string]*tenant
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
	epoch   atomic.Uint64

	// draining flips on Shutdown: new Hellos and in-flight requests are
	// answered with CodeShutdown, and ReadyzHandler reports 503 so load
	// balancers stop routing here while retained connections finish.
	draining atomic.Bool

	// connSeq hands each connection a stable shard index for its
	// tenant row's sharded request counter.
	connSeq atomic.Uint64

	// tenantRows bounds the per-tenant metric table cardinality; read
	// by Instrument, so set it first (SetTenantRows).
	tenantRows atomic.Int64

	// slow is the structured slow-request logger (nil = disabled).
	slow atomic.Pointer[slowLogger]

	// Delay, when positive, is slept before serving each request — the
	// benchmark harness's injected service latency (loopback ladder in
	// EXPERIMENTS.md). Read atomically; adjustable while serving.
	delay atomic.Int64

	// faultAfter, when armed (>= 0), counts down per request; when it
	// reaches zero the connection is dropped mid-request without a
	// response. Test hook for the client's degradation path.
	faultAfter atomic.Int64

	// Evidence retention policy: streams per tenant and bytes per
	// stream. Read atomically; adjustable while serving.
	evMaxStreams atomic.Int64
	evMaxBytes   atomic.Int64

	// ring, when set, makes this server one shard of a control plane
	// (SetRing): connections for tenants it does not own are refused
	// with CodeWrongShard.
	ring atomic.Pointer[ringState]

	// admit, when set, is the per-shard admission token bucket
	// (SetAdmission): requests beyond it answer CodeOverloaded.
	admit atomic.Pointer[tokenBucket]

	tel *serverTelemetry
}

// Evidence retention defaults (see SetEvidenceRetention).
const (
	// DefaultEvidenceStreams is how many evidence streams a tenant
	// retains before oldest-first eviction.
	DefaultEvidenceStreams = 64
	// DefaultEvidenceBytes is the per-stream size cap; larger uploads
	// are rejected with CodeEvidenceTooLarge.
	DefaultEvidenceBytes = 4 << 20
)

// serverTelemetry bundles the server-side metric handles (nil when
// telemetry is disabled; every site nil-checks).
type serverTelemetry struct {
	requests    *telemetry.Counter
	errors      *telemetry.Counter
	lookups     *telemetry.ShardedCounter
	snapshots   *telemetry.Counter
	latency     *telemetry.Histogram
	bytesIn     *telemetry.Counter
	bytesOut    *telemetry.Counter
	conns       *telemetry.Gauge
	swaps       *telemetry.Counter
	evUploads   *telemetry.Counter
	evEvictions *telemetry.Counter
	evRetained  *telemetry.Gauge

	// perType holds one handle-latency histogram per request type
	// (compact index, see reqTypeIndex).
	perType [numReqTypes]*telemetry.Histogram
	// errCodes counts MsgError responses by wire error code (index =
	// code; index 0 unused).
	errCodes [11]*telemetry.Counter

	// Sharded-plane metrics: delta requests answered with a patch list
	// vs. a full image, the installed topology generation, and requests
	// refused by the admission bucket.
	deltaHits     *telemetry.Counter
	deltaFulls    *telemetry.Counter
	ringEpoch     *telemetry.Gauge
	admitRejected *telemetry.Counter
	// tenants is the bounded per-tenant metric row table.
	tenants *tenantTab

	// track carries server-side request spans. Connections are served
	// on independent goroutines but Track is single-writer, so every
	// Complete emission holds trackMu; spans are pre-measured, so the
	// lock is held only for the ring append, never across a request.
	track     *telemetry.Track
	trackMu   sync.Mutex
	spanNames [numReqTypes]telemetry.NameID
	otherName telemetry.NameID
	traceArg  telemetry.NameID
}

// NewServer returns an empty server. Attach telemetry with
// Server.Instrument, publish tables with Publish, then Serve.
func NewServer() *Server {
	s := &Server{
		tenants: make(map[string]*tenant),
		conns:   make(map[net.Conn]struct{}),
	}
	s.faultAfter.Store(-1)
	s.evMaxStreams.Store(DefaultEvidenceStreams)
	s.evMaxBytes.Store(DefaultEvidenceBytes)
	s.tenantRows.Store(DefaultTenantRows)
	return s
}

// SetEvidenceRetention sets the per-tenant evidence retention policy:
// at most streams retained streams (oldest evicted first) and at most
// maxBytes per uploaded stream (larger uploads rejected). Zero or
// negative values keep the current setting.
func (s *Server) SetEvidenceRetention(streams int, maxBytes int) {
	if streams > 0 {
		s.evMaxStreams.Store(int64(streams))
	}
	if maxBytes > 0 {
		s.evMaxBytes.Store(int64(maxBytes))
	}
}

// SetTenantRows bounds the per-tenant metric table at n rows (tenants
// beyond the bound fold into the "_overflow" row). Takes effect at the
// next Instrument call, so set it first. n <= 0 keeps the default.
func (s *Server) SetTenantRows(n int) {
	if n > 0 {
		s.tenantRows.Store(int64(n))
	}
}

// SetSlowLog enables the structured slow-request log: any request whose
// service time reaches threshold emits one JSON line to w, rate-limited
// to perSec lines per wall-clock second (suppressed lines are counted
// and reported on the next emitted line). A nil w or non-positive
// threshold disables the log. Safe to call while serving.
func (s *Server) SetSlowLog(w io.Writer, threshold time.Duration, perSec int) {
	if w == nil || threshold <= 0 {
		s.slow.Store(nil)
		return
	}
	s.slow.Store(&slowLogger{w: w, threshold: threshold, perSec: perSec})
}

// Instrument registers the server's metrics in the Set's registry and,
// when the Set carries a trace recorder, opens the server span track
// (docs/OBSERVABILITY.md "sigserve metrics"). Safe to skip: an
// uninstrumented server emits nothing.
func (s *Server) Instrument(set *telemetry.Set) {
	reg := set.Registry()
	if reg == nil {
		return
	}
	st := &serverTelemetry{
		requests:  reg.Counter("sigserve_server_requests_total", "wire requests served"),
		errors:    reg.Counter("sigserve_server_errors_total", "requests answered with MsgError"),
		lookups:   reg.Sharded("sigserve_server_lookups_total", "lookup requests served, sharded by tenant", 8),
		snapshots: reg.Counter("sigserve_server_snapshots_total", "full snapshot fetches served"),
		latency:   reg.Histogram("sigserve_server_request_ns", "request service time, ns"),
		bytesIn:   reg.Counter("sigserve_server_bytes_in_total", "request bytes received, post-handshake"),
		bytesOut:  reg.Counter("sigserve_server_bytes_out_total", "response bytes written, post-handshake"),
		conns:     reg.Gauge("sigserve_server_connections", "live client connections"),
		swaps:     reg.Counter("sigserve_server_hot_swaps_total", "table generations published over live serving"),

		evUploads:   reg.Counter("sigserve_server_evidence_uploads_total", "evidence streams accepted"),
		evEvictions: reg.Counter("sigserve_server_evidence_evictions_total", "evidence streams evicted by retention"),
		evRetained:  reg.Gauge("sigserve_server_evidence_retained_bytes", "evidence bytes currently retained, all tenants"),

		deltaHits:     reg.Counter("sigserve_server_delta_hits_total", "snapshot-delta requests answered with a patch list"),
		deltaFulls:    reg.Counter("sigserve_server_delta_fulls_total", "snapshot-delta requests answered with a full image"),
		ringEpoch:     reg.Gauge("sigserve_server_ring_epoch", "installed topology generation (0 = unsharded)"),
		admitRejected: reg.Counter("sigserve_server_admission_rejected_total", "requests refused by the admission bucket"),

		tenants: newTenantTab(reg, int(s.tenantRows.Load())),
	}
	for i, tn := range reqTypeNames {
		st.perType[i] = reg.Histogram("sigserve_server_req."+tn+"_ns", tn+" service time, ns")
	}
	for code := ErrCode(1); code < ErrCode(len(st.errCodes)); code++ {
		st.errCodes[code] = reg.Counter("sigserve_server_error."+code.String()+"_total",
			"MsgError responses with code "+code.String())
	}
	if rec := set.Recorder(); rec != nil {
		st.track = rec.Track(set.TrackName("sigserve/server"))
		for i, tn := range reqTypeNames {
			st.spanNames[i] = rec.Name("serve " + tn)
		}
		st.otherName = rec.Name("serve other")
		st.traceArg = rec.Name("trace")
	}
	if rs := s.ring.Load(); rs != nil {
		st.ringEpoch.Set(int64(rs.ring.Epoch()))
	}
	s.tel = st
}

// span emits one pre-measured server request span tagged with the
// client's trace ID. Nil-safe on a missing track.
func (st *serverTelemetry) span(typeIdx int, t0, durNS int64, traceID uint64) {
	if st == nil || st.track == nil {
		return
	}
	name := st.otherName
	if typeIdx >= 0 {
		name = st.spanNames[typeIdx]
	}
	st.trackMu.Lock()
	st.track.Complete(name, t0, durNS, st.traceArg, traceID)
	st.trackMu.Unlock()
}

// SetDelay installs an artificial per-request service delay (0 disables).
// The delay is a time.Sleep, so it has the host's timer floor: on a
// 2-vCPU Linux host (go1.24, 200 samples per value), sleeps of 50 µs to
// 1 ms returned after a median of 1.08–1.10 ms and a 2 ms sleep after
// 2.21 ms. A delay below about 1 ms therefore acts as about 1.1 ms.
func (s *Server) SetDelay(d time.Duration) { s.delay.Store(int64(d)) }

// FaultAfter arms the fault injector: after n more requests the serving
// connection is dropped without a response, and every later request on
// any connection is dropped too (the "server died mid-run" scenario).
// n < 0 disarms.
func (s *Server) FaultAfter(n int64) { s.faultAfter.Store(n) }

// Publish installs (or hot-swaps) a module table under a tenant. The
// snapshot must be immutable, as sigtable.Snapshot guarantees; the
// server renders its wire image once here. Returns the generation number
// assigned to this publish.
func (s *Server) Publish(tenantName, module string, tbl sigtable.Table, snap *sigtable.Snapshot) uint64 {
	pub := &publishedTable{
		table: tbl,
		snap:  snap,
		wire:  snap.AppendWire(nil),
		epoch: s.epoch.Add(1),
	}
	pub.hash = snapHash(tbl, pub.wire)
	s.mu.Lock()
	t := s.tenants[tenantName]
	if t == nil {
		t = &tenant{modules: make(map[string]*atomic.Pointer[publishedTable])}
		s.tenants[tenantName] = t
	}
	s.mu.Unlock()
	t.mu.Lock()
	slot := t.modules[module]
	swap := slot != nil
	if slot == nil {
		slot = new(atomic.Pointer[publishedTable])
		t.modules[module] = slot
	}
	t.mu.Unlock()
	if old := slot.Load(); old != nil {
		// Diff against the generation being replaced so rotation ships
		// only changed records (MsgSnapshotDelta).
		pub.prevEpoch = old.epoch
		pub.prevHash = old.hash
		pub.patches = buildDelta(old, pub)
	}
	slot.Store(pub)
	if swap && s.tel != nil {
		s.tel.swaps.Inc()
	}
	return pub.epoch
}

// Serve accepts connections on ln until Close or Shutdown. It blocks;
// run it on its own goroutine. Each connection is served concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("sigserve: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address ("" before Serve or after Close).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Ready reports whether the server is accepting and serving new
// connections: a listener is attached and the server is neither closed
// nor draining. This is the /readyz predicate.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ln != nil && !s.closed && !s.draining.Load()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server gracefully: it stops accepting (Ready
// flips false, so /readyz tells load balancers to route elsewhere),
// answers every new Hello and every in-flight request with CodeShutdown
// — the wire-spec "retry against another replica" signal — and waits up
// to grace for connection goroutines to finish their current request.
// Connections still open at the deadline (or immediately, when grace
// <= 0) are force-closed. Idempotent with Close; the server cannot be
// reused afterwards.
func (s *Server) Shutdown(grace time.Duration) error {
	s.draining.Store(true)
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	if grace > 0 {
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		tm := time.NewTimer(grace)
		select {
		case <-done:
		case <-tm.C:
		}
		tm.Stop()
	}
	s.forceClose(false)
	return err
}

// Close stops accepting, tears down live connections, and waits for
// connection goroutines to drain.
func (s *Server) Close() error {
	return s.forceClose(true)
}

// forceClose is the shared teardown: mark closed, close the listener
// (unless the caller already did), kill live connections, wait for
// goroutines.
func (s *Server) forceClose(closeLn bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.ln = nil
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil && closeLn {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

// connState is one connection's fixed post-handshake context: the
// tenant and the tenant's metric row, resolved once at handshake so the
// per-request path is map-free and allocation-free.
type connState struct {
	conn       net.Conn
	t          *tenant
	tenantName string
	row        *tenantRow // nil when telemetry is disabled
	shard      int        // this connection's cell in row.requests
}

// serveConn runs one connection: Hello/Welcome handshake, then a
// request/response loop until EOF or protocol error.
func (s *Server) serveConn(conn net.Conn) {
	defer s.dropConn(conn)
	if s.tel != nil {
		s.tel.conns.Add(1)
		defer s.tel.conns.Add(-1)
	}

	// Handshake: any offered range containing Version is accepted at
	// Version; anything else is refused outright.
	f, err := ReadFrame(conn)
	if err != nil || f.Type != MsgHello {
		return
	}
	cs := &connState{conn: conn}
	hello, err := decodeHello(f.Payload)
	if err != nil {
		s.sendErr(cs, f.ReqID, CodeBadRequest, err.Error())
		return
	}
	if s.draining.Load() {
		s.sendErr(cs, f.ReqID, CodeShutdown, "server is draining; retry against another replica")
		return
	}
	if hello.MinVersion > Version || hello.MaxVersion < Version {
		s.sendErr(cs, f.ReqID, CodeBadVersion,
			fmt.Sprintf("server speaks version %d, client offered [%d,%d]", Version, hello.MinVersion, hello.MaxVersion))
		return
	}
	// Ring ownership comes before the tenant-existence check: a shard
	// that does not own the namespace has not published its tables, so
	// answering CodeUnknownTenant here would send the client exactly the
	// wrong signal. CodeWrongShard names the true owner instead.
	var ringEpoch uint64
	if rs := s.ring.Load(); rs != nil {
		ringEpoch = rs.ring.Epoch()
		if ok, owner := rs.owned(hello.Tenant); !ok {
			s.sendErrMsg(cs, f.ReqID, errorMsg{
				Code:      CodeWrongShard,
				Detail:    fmt.Sprintf("tenant %q is owned by shard %s", hello.Tenant, owner.ID),
				Owner:     owner.Addr,
				RingEpoch: ringEpoch,
			})
			return
		}
	}
	s.mu.Lock()
	t := s.tenants[hello.Tenant]
	s.mu.Unlock()
	if t == nil {
		s.sendErr(cs, f.ReqID, CodeUnknownTenant, hello.Tenant)
		return
	}
	cs.t = t
	cs.tenantName = hello.Tenant
	cs.shard = int(s.connSeq.Add(1) % tenantRowShards)
	if s.tel != nil {
		cs.row = s.tel.tenants.row(hello.Tenant)
	}
	if !s.reply(cs, f.ReqID, MsgWelcome,
		welcomeMsg{Version: Version, Epoch: s.epoch.Load(), RingEpoch: ringEpoch}.encode()) {
		return
	}

	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return
		}
		if !s.handle(cs, f) {
			return
		}
	}
}

// handle serves one post-handshake request; false tears the connection
// down.
func (s *Server) handle(cs *connState, f Frame) bool {
	start := time.Now()
	tel := s.tel
	var t0 int64
	if tel != nil {
		t0 = tel.track.Now()
	}
	bytesIn := headerSize + len(f.Payload)
	traceID, traceOK, traced := f.TakeTrace()
	if traced && !traceOK {
		return s.sendErr(cs, f.ReqID, CodeBadRequest, "FlagTraced frame shorter than a trace ID")
	}
	if s.draining.Load() {
		// Answer, then drop the connection: the client must re-dial a
		// replica that is not going away.
		s.sendErr(cs, f.ReqID, CodeShutdown, "server is draining; retry against another replica")
		return false
	}
	// Topology may have changed since handshake (SetRing swap): a shard
	// that lost this tenant redirects and drops the connection so the
	// client re-routes against the new ring.
	if rs := s.ring.Load(); rs != nil {
		if ok, owner := rs.owned(cs.tenantName); !ok {
			s.sendErrMsg(cs, f.ReqID, errorMsg{
				Code:      CodeWrongShard,
				Detail:    fmt.Sprintf("tenant %q moved to shard %s", cs.tenantName, owner.ID),
				Owner:     owner.Addr,
				RingEpoch: rs.ring.Epoch(),
			})
			return false
		}
	}
	// Admission: refuse, with a retry-after hint, rather than queue.
	// The connection stays up — overload is a transient, not a fault.
	if b := s.admit.Load(); b != nil {
		if ok, retry := b.take(); !ok {
			if tel != nil {
				tel.admitRejected.Inc()
			}
			millis := uint32((retry + time.Millisecond - 1) / time.Millisecond)
			if millis == 0 {
				millis = 1
			}
			return s.sendErrMsg(cs, f.ReqID, errorMsg{
				Code:             CodeOverloaded,
				Detail:           "admission bucket empty; slow down",
				RetryAfterMillis: millis,
			})
		}
	}
	if d := s.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if fa := s.faultAfter.Load(); fa >= 0 {
		if s.faultAfter.Add(-1) < 0 {
			s.faultAfter.Store(0) // keep faulting every later request
			return false          // drop mid-request, no response
		}
	}
	typeIdx := reqTypeIndex(f.Type)
	defer func() {
		dur := time.Since(start)
		if tel != nil {
			tel.requests.Inc()
			tel.bytesIn.Add(uint64(bytesIn))
			tel.latency.Observe(uint64(dur))
			if typeIdx >= 0 {
				tel.perType[typeIdx].Observe(uint64(dur))
			}
			cs.row.observe(typeIdx, cs.shard, bytesIn, uint64(dur))
			if traceOK {
				tel.span(typeIdx, t0, int64(dur), traceID)
			}
		}
		if sl := s.slow.Load(); sl != nil {
			sl.maybe(cs.tenantName, f.Type, f.ReqID, traceID, dur)
		}
	}()

	switch f.Type {
	case MsgPing:
		return s.reply(cs, f.ReqID, MsgPong, nil)

	case MsgModules:
		var list moduleListMsg
		cs.t.mu.RLock()
		for _, slot := range cs.t.modules {
			if pub := slot.Load(); pub != nil {
				list.Modules = append(list.Modules, moduleInfo{Table: pub.table, Epoch: pub.epoch})
			}
		}
		cs.t.mu.RUnlock()
		return s.reply(cs, f.ReqID, MsgModuleList, list.encode())

	case MsgSnapshot:
		req, err := decodeSnapshotReq(f.Payload)
		if err != nil {
			return s.sendErr(cs, f.ReqID, CodeBadRequest, err.Error())
		}
		slot := cs.t.slot(req.Module)
		if slot == nil {
			return s.sendErr(cs, f.ReqID, CodeUnknownModule, req.Module)
		}
		pub := slot.Load()
		if tel != nil {
			tel.snapshots.Inc()
		}
		return s.reply(cs, f.ReqID, MsgSnapshotData,
			snapshotData{Table: pub.table, Epoch: pub.epoch, Recs: pub.wire}.encode())

	case MsgLookup:
		d := dec{b: f.Payload}
		req := decodeLookupReq(&d)
		if err := d.done(); err != nil {
			return s.sendErr(cs, f.ReqID, CodeBadRequest, err.Error())
		}
		res, code, detail := s.lookup(cs.t, cs.tenantName, req)
		if code != 0 {
			return s.sendErr(cs, f.ReqID, code, detail)
		}
		var e enc
		res.append(&e)
		return s.reply(cs, f.ReqID, MsgLookupResult, e.b)

	case MsgLookupBatch:
		batch, err := decodeLookupBatch(f.Payload)
		if err != nil {
			return s.sendErr(cs, f.ReqID, CodeBadRequest, err.Error())
		}
		out := lookupBatchRes{Res: make([]lookupRes, 0, len(batch.Reqs))}
		for _, req := range batch.Reqs {
			res, code, detail := s.lookup(cs.t, cs.tenantName, req)
			if code != 0 {
				return s.sendErr(cs, f.ReqID, code, detail)
			}
			out.Res = append(out.Res, res)
		}
		return s.reply(cs, f.ReqID, MsgLookupBatchResult, out.encode())

	case MsgEvidencePut, MsgEvidenceList, MsgEvidenceGet:
		return s.handleEvidence(cs, f)

	case MsgSnapshotDelta:
		return s.handleSnapshotDelta(cs, f)

	case MsgTopology:
		return s.handleTopology(cs, f)

	default:
		return s.sendErr(cs, f.ReqID, CodeBadRequest, fmt.Sprintf("unexpected message type %#x", uint8(f.Type)))
	}
}

// handleEvidence serves the evidence message family against the
// tenant's bounded retention store.
func (s *Server) handleEvidence(cs *connState, f Frame) bool {
	t := cs.t
	switch f.Type {
	case MsgEvidencePut:
		put, err := decodeEvidencePut(f.Payload)
		if err != nil {
			return s.sendErr(cs, f.ReqID, CodeBadRequest, err.Error())
		}
		if put.Name == "" {
			return s.sendErr(cs, f.ReqID, CodeBadRequest, "evidence upload needs a name")
		}
		if max := s.evMaxBytes.Load(); int64(len(put.Stream)) > max {
			return s.sendErr(cs, f.ReqID, CodeEvidenceTooLarge,
				fmt.Sprintf("stream is %d bytes, per-stream cap is %d", len(put.Stream), max))
		}
		evicted, delta := t.retainEvidence(put.Name, put.Stream, int(s.evMaxStreams.Load()))
		if s.tel != nil {
			s.tel.evUploads.Inc()
			s.tel.evEvictions.Add(uint64(evicted))
			s.tel.evRetained.Add(delta)
		}
		return s.reply(cs, f.ReqID, MsgEvidenceAck,
			evidenceAckMsg{Bytes: uint64(len(put.Stream)), Evicted: uint32(evicted)}.encode())

	case MsgEvidenceList:
		var cat evidenceCatalogMsg
		t.emu.Lock()
		for _, name := range t.evOrder {
			cat.Streams = append(cat.Streams, evidenceInfo{Name: name, Bytes: uint64(len(t.evidence[name]))})
		}
		t.emu.Unlock()
		return s.reply(cs, f.ReqID, MsgEvidenceCatalog, cat.encode())

	case MsgEvidenceGet:
		get, err := decodeEvidenceGet(f.Payload)
		if err != nil {
			return s.sendErr(cs, f.ReqID, CodeBadRequest, err.Error())
		}
		t.emu.Lock()
		stream, ok := t.evidence[get.Name]
		t.emu.Unlock()
		if !ok {
			return s.sendErr(cs, f.ReqID, CodeUnknownEvidence, get.Name)
		}
		return s.reply(cs, f.ReqID, MsgEvidenceData, evidenceDataMsg{Stream: stream}.encode())
	}
	return false
}

// retainEvidence stores one stream under the retention policy, evicting
// oldest streams beyond maxStreams. Re-uploading an existing name
// replaces the stream in place (same retention slot). Returns how many
// streams were evicted and the net change in retained bytes.
func (t *tenant) retainEvidence(name string, stream []byte, maxStreams int) (evicted int, delta int64) {
	t.emu.Lock()
	defer t.emu.Unlock()
	if t.evidence == nil {
		t.evidence = make(map[string][]byte)
	}
	if old, ok := t.evidence[name]; ok {
		t.evBytes -= uint64(len(old))
		delta -= int64(len(old))
	} else {
		t.evOrder = append(t.evOrder, name)
	}
	t.evidence[name] = stream
	t.evBytes += uint64(len(stream))
	delta += int64(len(stream))
	for maxStreams > 0 && len(t.evOrder) > maxStreams {
		oldest := t.evOrder[0]
		t.evOrder = t.evOrder[1:]
		t.evBytes -= uint64(len(t.evidence[oldest]))
		delta -= int64(len(t.evidence[oldest]))
		delete(t.evidence, oldest)
		evicted++
	}
	return evicted, delta
}

// lookup answers one lookupReq from the tenant's current table
// generation. A verdict (found or miss) returns code 0; a non-zero code
// means the request itself failed.
func (s *Server) lookup(t *tenant, tenantName string, req lookupReq) (lookupRes, ErrCode, string) {
	slot := t.slot(req.Module)
	if slot == nil {
		return lookupRes{}, CodeUnknownModule, req.Module
	}
	snap := slot.Load().snap
	if s.tel != nil {
		s.tel.lookups.Cell(shardFor(tenantName, s.tel.lookups.Shards())).Inc()
	}
	var (
		entry   sigtable.Entry
		touched []uint64
		err     error
		has     bool
	)
	// The wire controls req.Kind, so kind/format mismatches must answer
	// as protocol errors here — the snapshot readers treat them as API
	// misuse and panic.
	cfiOnly := snap.Meta().Format == sigtable.CFIOnly
	switch req.Kind {
	case kindLookup, kindLookupAll:
		if cfiOnly {
			return lookupRes{}, CodeBadRequest, "signature lookup on a CFI-only table; use edge lookups"
		}
	case kindEdge:
		if !cfiOnly {
			return lookupRes{}, CodeBadRequest, "edge lookup on a hashed-format table; use signature lookups"
		}
	}
	switch req.Kind {
	case kindLookup:
		var want sigtable.Want
		if req.WantFlags&wantTarget != 0 {
			want.CheckTarget, want.Target = true, req.Target
		}
		if req.WantFlags&wantPred != 0 {
			want.CheckPred, want.Pred = true, req.Pred
		}
		entry, touched, err = snap.Lookup(req.End, chash.Sig(req.Sig), want)
		has = err == nil
	case kindLookupAll:
		entry, touched, err = snap.LookupAll(req.End, chash.Sig(req.Sig))
		has = err == nil
	case kindEdge:
		touched, err = snap.LookupEdge(req.End, req.Target)
	default:
		return lookupRes{}, CodeBadRequest, fmt.Sprintf("unknown lookup kind %d", req.Kind)
	}
	res := lookupRes{Touched: touched}
	if err != nil {
		if !sigtable.IsMiss(err) {
			return lookupRes{}, CodeInternal, err.Error()
		}
		res.Verdict = verdictMiss
	}
	if has {
		res.HasEntry = 1
		res.Entry = entry
	}
	return res, 0, ""
}

// reply writes one response frame; false tears the connection down.
// Response bytes and error counts land on both the global and the
// tenant-row metrics.
func (s *Server) reply(cs *connState, reqID uint64, typ MsgType, payload []byte) bool {
	isErr := typ == MsgError
	n := headerSize + len(payload)
	if s.tel != nil {
		if isErr {
			s.tel.errors.Inc()
		}
		s.tel.bytesOut.Add(uint64(n))
	}
	cs.row.wrote(n, isErr)
	return WriteFrame(cs.conn, Frame{Version: Version, Type: typ, ReqID: reqID, Payload: payload}) == nil
}

func (s *Server) sendErr(cs *connState, reqID uint64, code ErrCode, detail string) bool {
	return s.sendErrMsg(cs, reqID, errorMsg{Code: code, Detail: detail})
}

// shardFor maps a tenant name onto a sharded-counter cell (FNV-1a).
func shardFor(tenant string, shards int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tenant); i++ {
		h = (h ^ uint64(tenant[i])) * 1099511628211
	}
	return int(h % uint64(shards))
}

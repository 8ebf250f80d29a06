package sigserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// TestTraceRoundTrip drives coalesced, batched, and snapshot traffic
// from many goroutines against an instrumented server and asserts the
// trace IDs stitch: every client-side remote-fetch span's trace ID shows
// up again on a server-side serve span. Run under -race this also pins
// that span emission from dispatcher and caller goroutines is safe.
func TestTraceRoundTrip(t *testing.T) {
	f := fixture(t)
	srv := NewServer()
	for _, st := range f.prep.Tables {
		srv.Publish("default", st.Module, *st.Table, st.Snap)
	}
	serverSet := &telemetry.Set{Reg: telemetry.NewRegistry(), Trace: telemetry.NewRecorder(1 << 12)}
	srv.Instrument(serverSet)
	_, addr := serveOn(t, srv)

	clientSet := &telemetry.Set{Reg: telemetry.NewRegistry(), Trace: telemetry.NewRecorder(1 << 12)}
	c := newTestClient(t, ClientConfig{Addr: addr, LookupMode: true, Telemetry: clientSet})
	mod := f.prep.Tables[0].Module
	src, err := c.Source(mod)
	if err != nil {
		t.Fatal(err)
	}
	snap := f.prep.Tables[0].Snap

	// Mixed concurrent load: blocking lookups through the dispatcher
	// (with deliberate duplicates so coalescing fires), speculative
	// batches on caller goroutines, and snapshot fetches.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				end := uint64(0x4000 + (i%7)*16)
				src.LookupAll(end, 7)
				if i%5 == 0 {
					src.LookupBatch([]sigtable.BatchReq{
						{End: end, Sig: 7},
						{End: end + 8, Sig: 9},
					})
				}
				if g == 0 && i%10 == 0 {
					c.FetchSnapshot(mod)
				}
			}
		}(g)
	}
	wg.Wait()
	_ = snap
	c.Close()
	srv.Close()

	clientIDs := map[uint64]bool{}
	for _, e := range clientSet.Trace.Events() {
		if e.Kind == "span" && e.ArgName == "trace" && e.Arg != 0 &&
			(e.Name == "remote-fetch" || e.Name == "queue-wait") {
			clientIDs[e.Arg] = true
		}
	}
	serverIDs := map[uint64]bool{}
	for _, e := range serverSet.Trace.Events() {
		if e.Kind == "span" && e.ArgName == "trace" && e.Arg != 0 {
			if !strings.HasPrefix(e.Name, "serve ") {
				t.Fatalf("server span has unexpected name %q", e.Name)
			}
			serverIDs[e.Arg] = true
		}
	}
	if len(clientIDs) == 0 || len(serverIDs) == 0 {
		t.Fatalf("no traced spans recorded: client %d, server %d", len(clientIDs), len(serverIDs))
	}
	for id := range clientIDs {
		if !serverIDs[id] {
			t.Fatalf("client trace id %016x has no matching server span (server saw %d ids)", id, len(serverIDs))
		}
	}
}

// TestTenantRowsBounded floods an instrumented server with more tenant
// names than the row cap and asserts the metric table folds the excess
// into the _overflow row instead of growing without bound.
func TestTenantRowsBounded(t *testing.T) {
	f := fixture(t)
	srv := NewServer()
	srv.SetTenantRows(4)
	st0 := f.prep.Tables[0]
	names := make([]string, 10)
	for i := range names {
		// A hostile name lands in the set too: it must survive both row
		// creation and Prometheus exposition.
		names[i] = fmt.Sprintf("tenant-%d", i)
	}
	names[9] = "evil{label=\"x\"}\ntenant"
	for _, name := range names {
		srv.Publish(name, st0.Module, *st0.Table, st0.Snap)
	}
	reg := telemetry.NewRegistry()
	srv.Instrument(&telemetry.Set{Reg: reg})
	_, addr := serveOn(t, srv)

	for _, name := range names {
		c := newTestClient(t, ClientConfig{Addr: addr, Tenant: name})
		if err := c.Ping(); err != nil {
			t.Fatalf("tenant %q: %v", name, err)
		}
		c.Close()
	}

	// Every ping must land somewhere: 4 rows + overflow absorb all 10
	// connections' pings. The server counts each request after its reply,
	// so wait for the last one.
	snap := waitFor(t, "every ping in the tenant rows", func() (*telemetry.Snapshot, bool) {
		snap := reg.Snapshot()
		var pings uint64
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "sigserve_tenant.") && strings.HasSuffix(name, ".req.ping_total") {
				pings += v
			}
		}
		return snap, pings == uint64(len(names))
	})
	rows := map[string]bool{}
	for name := range snap.Counters {
		if rest, ok := strings.CutPrefix(name, "sigserve_tenant."); ok {
			if tenant, ok := strings.CutSuffix(rest, ".requests_total"); ok {
				rows[tenant] = true
			}
		}
	}
	if !rows[OverflowTenant] {
		t.Fatalf("no %s row; rows: %v", OverflowTenant, rows)
	}
	if got := len(rows) - 1; got != 4 {
		t.Fatalf("table holds %d tenant rows, want 4 (cap); rows: %v", got, rows)
	}
	if got := snap.Gauges["sigserve_server_tenant_rows"]; got != 4 {
		t.Fatalf("sigserve_server_tenant_rows = %v, want 4", got)
	}
	if got := snap.Counters["sigserve_server_tenant_rows_folded_total"]; got != 6 {
		t.Fatalf("folded_total = %d, want 6", got)
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus with hostile tenant name: %v", err)
	}
	if strings.Contains(buf.String(), "evil{label") {
		t.Fatalf("hostile tenant name escaped promName sanitization")
	}
}

// TestShutdownDrain pins the graceful-shutdown contract: readiness flips
// as Shutdown begins, an in-flight connection's next request is answered
// CodeShutdown and then dropped, and a fresh Hello is refused with
// CodeShutdown.
func TestShutdownDrain(t *testing.T) {
	srv, addr := startServer(t)
	// Serve attaches the listener on its own goroutine; wait for it.
	deadline := time.Now().Add(2 * time.Second)
	for !srv.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("server not Ready while serving")
		}
		time.Sleep(time.Millisecond)
	}
	rec := httptest.NewRecorder()
	srv.ReadyzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("/readyz = %d while serving, want 200", rec.Code)
	}

	// A raw pre-drain connection, handshaken by hand so the test owns
	// its timing.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := helloMsg{MinVersion: Version, MaxVersion: Version, Tenant: "default"}
	if err := WriteFrame(conn, Frame{Version: Version, Type: MsgHello, ReqID: 1, Payload: hello.encode()}); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(conn); err != nil || f.Type != MsgWelcome {
		t.Fatalf("handshake: type %#x, err %v", uint8(f.Type), err)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(5 * time.Second) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	if srv.Ready() {
		t.Fatal("server Ready while draining")
	}
	rec = httptest.NewRecorder()
	srv.ReadyzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("/readyz during drain = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	srv.HealthzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz during drain = %d, want 200 (liveness is not readiness)", rec.Code)
	}

	// The retained connection's next request: CodeShutdown, then EOF.
	if err := WriteFrame(conn, Frame{Version: Version, Type: MsgPing, ReqID: 2}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("drain answer: %v", err)
	}
	if f.Type != MsgError {
		t.Fatalf("drain answered %#x, want MsgError", uint8(f.Type))
	}
	e, err := decodeError(f.Payload)
	if err != nil || e.Code != CodeShutdown {
		t.Fatalf("drain answered code %v (err %v), want CodeShutdown", e.Code, err)
	}
	if _, err := ReadFrame(conn); err == nil {
		t.Fatal("connection stayed open after CodeShutdown answer")
	}

	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// New connections are refused outright.
	c2 := newTestClient(t, ClientConfig{Addr: addr, Retries: 1, DialTimeout: 200 * time.Millisecond})
	if err := c2.Ping(); err == nil {
		t.Fatal("Ping succeeded against a shut-down server")
	}
}

// TestShutdownRefusesHelloWhileDraining covers the accept-then-drain
// window: a connection that reaches the handshake during drain is told
// CodeShutdown, not CodeUnknownTenant or a hang.
func TestShutdownRefusesHelloWhileDraining(t *testing.T) {
	srv, addr := startServer(t)
	// Hold one raw connection open so Shutdown stays in its grace wait.
	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	hello := helloMsg{MinVersion: Version, MaxVersion: Version, Tenant: "default"}
	if err := WriteFrame(hold, Frame{Version: Version, Type: MsgHello, ReqID: 1, Payload: hello.encode()}); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(hold); err != nil || f.Type != MsgWelcome {
		t.Fatalf("handshake: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(5 * time.Second) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	c := newTestClient(t, ClientConfig{Addr: addr, Retries: 1, DialTimeout: 200 * time.Millisecond})
	err = c.Ping()
	var se *ServerError
	if err == nil {
		t.Fatal("Ping succeeded against a draining server")
	}
	// The listener may already be closed (dial refused) or the Hello may
	// get through and be answered CodeShutdown; both are valid drains,
	// but a served Hello must carry CodeShutdown specifically.
	if errors.As(err, &se) && se.Code != CodeShutdown {
		t.Fatalf("draining Hello answered %v, want CodeShutdown", se.Code)
	}
	hold.Close()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestSlowLog pins the slow-request log line shape and the per-second
// rate limit with its suppressed-count carry.
func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	l := &slowLogger{w: &buf, threshold: time.Millisecond, perSec: 2}
	l.maybe("acme", MsgLookup, 41, 0xabc, 5*time.Millisecond)
	l.maybe("acme", MsgLookup, 42, 0, 2*time.Millisecond)
	l.maybe("acme", MsgPing, 43, 0, 3*time.Millisecond)   // over the limit: suppressed
	l.maybe("acme", MsgPing, 44, 0, 500*time.Microsecond) // under threshold: ignored
	l.sec = 0                                             // force a new rate-limit window
	l.maybe("acme", MsgSnapshot, 45, 0, 7*time.Millisecond)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("slow log emitted %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var first struct {
		TS        string `json:"ts"`
		Kind      string `json:"kind"`
		Tenant    string `json:"tenant"`
		Msg       string `json:"msg"`
		ReqID     uint64 `json:"req_id"`
		TraceID   string `json:"trace_id"`
		DurNS     int64  `json:"dur_ns"`
		Threshold int64  `json:"threshold_ns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, lines[0])
	}
	if first.Kind != "slow_request" || first.Tenant != "acme" || first.Msg != "lookup" ||
		first.ReqID != 41 || first.TraceID != "0000000000000abc" ||
		first.DurNS != int64(5*time.Millisecond) || first.Threshold != int64(time.Millisecond) {
		t.Fatalf("slow log line fields wrong: %+v", first)
	}
	var last struct {
		Suppressed uint64 `json:"suppressed"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Suppressed != 1 {
		t.Fatalf("suppressed carry = %d, want 1", last.Suppressed)
	}

	// End to end: a delayed server with a sub-delay threshold logs.
	var serverBuf syncBuffer
	srv, addr := startServer(t)
	srv.SetSlowLog(&serverBuf, time.Millisecond, 10)
	srv.SetDelay(3 * time.Millisecond)
	c := newTestClient(t, ClientConfig{Addr: addr})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.SetDelay(0)
	// The server writes the line after its reply, so that the logged
	// duration covers the reply write: Ping can return first.
	line := waitFor(t, "a server slow log line", func() (string, bool) {
		line, _, ok := strings.Cut(serverBuf.String(), "\n")
		return line, ok
	})
	var got struct {
		Kind   string `json:"kind"`
		Tenant string `json:"tenant"`
		Msg    string `json:"msg"`
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("server slow log line: %v\n%q", err, line)
	}
	if got.Kind != "slow_request" || got.Tenant != "default" || got.Msg != "ping" {
		t.Fatalf("server slow log fields: %+v", got)
	}
}

// waitFor polls cond until it reports true, failing the test after five
// seconds. The server accounts and logs each request after replying to
// it, so a client can see the reply before the request's traces exist.
func waitFor[T any](t *testing.T, what string, cond func() (T, bool)) T {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, ok := cond(); ok {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for cross-goroutine log
// capture.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

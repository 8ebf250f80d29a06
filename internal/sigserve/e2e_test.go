package sigserve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rev/internal/core"
	"rev/internal/sigtable"
)

// resultSig renders the determinism-contract fields of a Result,
// including SourceNotes: a healthy remote run must match the local run
// byte for byte, annotations included (nil on both sides).
func resultSig(res *core.Result) string {
	eng := res.Engine
	eng.MemoHits, eng.MemoMisses = 0, 0
	return fmt.Sprintf("%v|%v|%v|%+v|%+v|%d|%+v|%+v|%+v|%+v|%+v|%+v|%+v",
		res.Output, res.Halted, res.Violation, res.Pipe, res.Branch,
		res.UniqueBranches, res.L1D, res.L1I, res.L2, res.DRAM,
		res.SC, eng, res.SourceNotes)
}

// TestRemoteRunByteIdentity is the acceptance check: a run validating
// against a revserved endpoint — in snapshot mode and in per-entry
// lookup mode, with no service delay and with 1 ms — produces
// byte-identical verdicts and figures to the in-process snapshot path.
func TestRemoteRunByteIdentity(t *testing.T) {
	f := fixture(t)
	local, err := f.prep.RunInstance(core.InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if local.Violation != nil {
		t.Fatalf("clean workload flagged locally: %v", local.Violation)
	}
	want := resultSig(local)

	srv, addr := startServer(t)
	for _, lookupMode := range []bool{false, true} {
		name := "snapshot"
		if lookupMode {
			name = "lookup"
		}
		t.Run(name, func(t *testing.T) {
			for _, delay := range []time.Duration{0, time.Millisecond} {
				t.Run("delay="+delay.String(), func(t *testing.T) {
					srv.SetDelay(delay)
					defer srv.SetDelay(0)
					c := newTestClient(t, ClientConfig{Addr: addr, LookupMode: lookupMode})
					prep, err := core.PrepareRemote(f.prof.Builder(), f.rc, c)
					if err != nil {
						t.Fatal(err)
					}
					res, err := prep.RunInstance(core.InstanceOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if res.SourceNotes != nil {
						t.Fatalf("healthy remote run carries source notes: %+v", res.SourceNotes)
					}
					if got := resultSig(res); got != want {
						t.Fatalf("remote %s run diverged from local:\n got %s\nwant %s", name, got, want)
					}
				})
			}
		})
	}
}

// TestRemoteRunDegradesOnServerDeath kills the server mid-run (the
// fault injector drops every connection after N requests): the run must
// complete with verdicts identical to the local baseline — served from
// the client's cached snapshot — and carry an explicit degradation note.
// A transport fault must never become a violation or a silent pass.
func TestRemoteRunDegradesOnServerDeath(t *testing.T) {
	f := fixture(t)
	local, err := f.prep.RunInstance(core.InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}

	srv, addr := startServer(t)
	c := newTestClient(t, ClientConfig{
		Addr:             addr,
		LookupMode:       true,
		RequestTimeout:   100 * time.Millisecond,
		Retries:          1,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // stay open once tripped
	})
	prep, err := core.PrepareRemote(f.prof.Builder(), f.rc, c)
	if err != nil {
		t.Fatal(err) // the snapshot cache is fetched here, pre-fault
	}
	srv.FaultAfter(10) // let a few lookups through, then "die"

	res, err := prep.RunInstance(core.InstanceOptions{})
	if err != nil {
		t.Fatalf("degraded run must still complete: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("transport fault became a violation: %v", res.Violation)
	}
	// The verdict-bearing fields must match the local baseline exactly.
	if fmt.Sprint(res.Output) != fmt.Sprint(local.Output) ||
		res.Halted != local.Halted ||
		res.Pipe != local.Pipe ||
		res.SC != local.SC {
		t.Fatal("degraded run diverged from the local baseline")
	}
	// ... and the degradation must be announced, never silent.
	if len(res.SourceNotes) == 0 {
		t.Fatal("degraded run carries no source note")
	}
	note := res.SourceNotes[0]
	if !note.Degraded || note.Module == "" || note.Epoch == 0 || note.Detail == "" {
		t.Fatalf("incomplete degradation note: %+v", note)
	}
	if note.Stale {
		t.Fatalf("no newer generation was published; note must not claim staleness: %+v", note)
	}
}

// TestRemoteDegradedStaleness marks the note stale when the client has
// seen a newer table generation than its cache.
func TestRemoteDegradedStaleness(t *testing.T) {
	f := fixture(t)
	srv, addr := startServer(t)
	c := newTestClient(t, ClientConfig{
		Addr:             addr,
		LookupMode:       true,
		RequestTimeout:   100 * time.Millisecond,
		Retries:          1,
		BackoffBase:      time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	src, err := c.Source(f.prep.Tables[0].Module)
	if err != nil {
		t.Fatal(err)
	}
	// A newer generation lands on the server; the client learns the new
	// epoch from its next response, then the server dies.
	st := f.prep.Tables[0]
	srv.Publish("default", st.Module, *st.Table, st.Snap)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.FaultAfter(0)
	if _, _, err := src.LookupAll(0x4242, 7); !sigtable.IsMiss(err) {
		t.Fatalf("degraded lookup should fall back to the cache's miss verdict, got %v", err)
	}
	note, ok := src.HealthNote()
	if !ok || !note.Degraded || !note.Stale {
		t.Fatalf("want a stale degradation note, got %+v (ok=%v)", note, ok)
	}
}

// TestPrepareRemoteUnavailable checks the no-cache case: when the server
// is unreachable at prepare time there is nothing to degrade to, and the
// failure is a typed transport error — not a violation, not a panic.
func TestPrepareRemoteUnavailable(t *testing.T) {
	f := fixture(t)
	c := newTestClient(t, ClientConfig{
		Addr:           "127.0.0.1:1", // nothing listens here
		DialTimeout:    50 * time.Millisecond,
		RequestTimeout: 50 * time.Millisecond,
		Retries:        1,
		BackoffBase:    time.Millisecond,
	})
	_, err := core.PrepareRemote(f.prof.Builder(), f.rc, c)
	if err == nil {
		t.Fatal("PrepareRemote succeeded with no server")
	}
	if !errors.Is(err, sigtable.ErrUnavailable) {
		t.Fatalf("want ErrUnavailable wrap, got %v", err)
	}
}

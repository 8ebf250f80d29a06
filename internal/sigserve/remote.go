package sigserve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rev/internal/chash"
	"rev/internal/sigtable"
)

// RemoteSource is a sigtable.Source backed by a revserved endpoint. In
// snapshot mode (the default) it fetches the module's full decrypted
// table once at open and answers every lookup locally — one round trip
// per run, verdicts bit-identical to core.Prepare's in-process path. In
// lookup mode it forwards each query over the wire (coalesced and
// batched by the Client) and falls back to the snapshot fetched at open
// when the transport fails: the verdict is still real table content, and
// the degradation is reported through HealthNote as a
// sigtable.SourceNote carried on core.Result.SourceNotes — never a
// silent pass, and a transport fault is never turned into a violation.
//
// Safe for concurrent use by any number of engines, like Snapshot.
type RemoteSource struct {
	c      *Client
	module string
	lookup bool // lookup mode (false = snapshot mode)

	// gen is the cached snapshot generation: the lookup source in
	// snapshot mode, the degradation fallback in lookup mode. Swapped
	// atomically by Refresh, so serving engines never block on it.
	gen atomic.Pointer[snapGen]

	// refreshMu serializes Refresh: two concurrent refreshes could
	// otherwise race their unconditional gen.Store calls, letting a
	// slower fetch of an older generation overwrite a newer one.
	refreshMu sync.Mutex

	mu       sync.Mutex
	degraded bool
	detail   string
}

// snapGen is one immutable cached snapshot generation.
type snapGen struct {
	snap  *sigtable.Snapshot
	table sigtable.Table
	epoch uint64
}

// Source opens the named module on the client's tenant: fetches table
// metadata plus the snapshot cache, and returns a RemoteSource in the
// client's configured mode.
func (c *Client) Source(module string) (*RemoteSource, error) {
	snap, tbl, epoch, err := c.FetchSnapshot(module)
	if err != nil {
		return nil, fmt.Errorf("sigserve: opening %s: %w", module, err)
	}
	s := &RemoteSource{
		c:      c,
		module: module,
		lookup: c.cfg.LookupMode,
	}
	s.gen.Store(&snapGen{snap: snap, table: tbl, epoch: epoch})
	return s, nil
}

// Module resolves a module to its table metadata and lookup source —
// the shape core.TableProvider wants, so a *Client plugs straight into
// core.PrepareRemote.
func (c *Client) Module(name string) (*sigtable.Table, sigtable.Source, error) {
	src, err := c.Source(name)
	if err != nil {
		return nil, nil, err
	}
	tbl := src.Table()
	return &tbl, src, nil
}

// Table returns the module's table metadata (base as assigned by the
// serving side).
func (s *RemoteSource) Table() sigtable.Table { return s.gen.Load().table }

// Epoch returns the publish generation of the cached snapshot.
func (s *RemoteSource) Epoch() uint64 { return s.gen.Load().epoch }

// Refresh brings the cached snapshot up to the server's current
// generation via snapshot-delta distribution: it names the generation
// it holds (epoch + hash of the wire image) and applies the returned
// record patches onto the cached image, verifying the result hashes to
// the server's stated chain head. Any break in the chain — the server
// could not delta from our generation, a patch fails the hash check —
// falls back to one full snapshot fetch. The swap is atomic; engines
// serving from the old generation finish against it. Concurrent Refresh
// calls are serialized so an older fetch can never overwrite a newer
// one.
func (s *RemoteSource) Refresh() error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	g := s.gen.Load()
	wire := g.snap.AppendWire(nil)
	have := snapHash(g.table, wire)
	d, err := s.c.fetchSnapshotDelta(s.module, g.epoch, have)
	if err != nil {
		return err
	}
	if d.Full == 0 && d.Epoch == g.epoch && d.NewHash == have && len(d.Patches) == 0 {
		return nil // already current
	}
	var newWire []byte
	switch {
	case d.Full != 0:
		newWire = d.Recs
	case d.PrevHash != have:
		// The server chained this delta off a generation we don't hold.
		return s.refreshFull()
	default:
		newWire, err = applyDelta(wire, d)
		if err != nil {
			// Chain mismatch after apply: the cached image drifted from
			// what the server diffed against. Full fetch re-anchors.
			return s.refreshFull()
		}
	}
	snap, err := sigtable.SnapshotFromWire(d.Table, newWire)
	if err != nil {
		return s.refreshFull()
	}
	s.gen.Store(&snapGen{snap: snap, table: d.Table, epoch: d.Epoch})
	return nil
}

// refreshFull replaces the cached generation with a full snapshot fetch.
func (s *RemoteSource) refreshFull() error {
	snap, tbl, epoch, err := s.c.FetchSnapshot(s.module)
	if err != nil {
		return err
	}
	s.gen.Store(&snapGen{snap: snap, table: tbl, epoch: epoch})
	return nil
}

// HealthNote implements sigtable.HealthReporter: it returns a note only
// after at least one lookup was served from the local cache because the
// transport failed. Healthy sources return ok=false, which keeps
// Result.SourceNotes nil and the local/remote byte-identity intact.
func (s *RemoteSource) HealthNote() (sigtable.SourceNote, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.degraded {
		return sigtable.SourceNote{}, false
	}
	epoch := s.gen.Load().epoch
	return sigtable.SourceNote{
		Module:   s.module,
		Epoch:    epoch,
		Degraded: true,
		Stale:    s.c.ServerEpoch() > epoch,
		Detail:   s.detail,
	}, true
}

// degrade records that a lookup fell back to the cache.
func (s *RemoteSource) degrade(err error) {
	s.mu.Lock()
	if !s.degraded {
		s.degraded = true
		s.detail = err.Error()
	}
	s.mu.Unlock()
	if s.c.tel != nil && s.c.tel.degraded != nil {
		s.c.tel.degraded.Inc()
	}
}

// transientCode reports whether a server rejection is a plane-health
// transient (replica draining, shard overloaded, topology churn) rather
// than a verdict on the request itself. Transients degrade to the
// cached snapshot — a SourceNotes fact, never a violation — while
// definitive rejections surface to the caller.
func transientCode(code ErrCode) bool {
	return code == CodeShutdown || code == CodeOverloaded || code == CodeWrongShard
}

// remote performs one wire lookup, degrading to the cache on transport
// failure. fall runs the identical query against the cached snapshot.
func (s *RemoteSource) remote(req lookupReq, fall func() (sigtable.Entry, []uint64, error)) (sigtable.Entry, []uint64, error) {
	res, err := s.c.lookup(req)
	if err != nil {
		if se, isServer := errAsServer(err); isServer && !transientCode(se.Code) {
			// The server answered and rejected the request: a real
			// error, not a transport fault. No verdict; surface it.
			return sigtable.Entry{}, nil, err
		}
		s.degrade(err)
		return fall()
	}
	if res.Verdict == verdictMiss {
		return sigtable.Entry{}, res.Touched, sigtable.ErrMiss
	}
	return res.Entry, res.Touched, nil
}

// Lookup implements sigtable.Source.
func (s *RemoteSource) Lookup(end uint64, sig chash.Sig, want sigtable.Want) (sigtable.Entry, []uint64, error) {
	if !s.lookup {
		return s.gen.Load().snap.Lookup(end, sig, want)
	}
	req := lookupReq{Module: s.module, Kind: kindLookup, End: end, Sig: uint64(sig)}
	if want.CheckTarget {
		req.WantFlags |= wantTarget
		req.Target = want.Target
	}
	if want.CheckPred {
		req.WantFlags |= wantPred
		req.Pred = want.Pred
	}
	return s.remote(req, func() (sigtable.Entry, []uint64, error) {
		return s.gen.Load().snap.Lookup(end, sig, want)
	})
}

// LookupAll implements sigtable.Source.
func (s *RemoteSource) LookupAll(end uint64, sig chash.Sig) (sigtable.Entry, []uint64, error) {
	if !s.lookup {
		return s.gen.Load().snap.LookupAll(end, sig)
	}
	req := lookupReq{Module: s.module, Kind: kindLookupAll, End: end, Sig: uint64(sig)}
	return s.remote(req, func() (sigtable.Entry, []uint64, error) {
		return s.gen.Load().snap.LookupAll(end, sig)
	})
}

// LookupEdge implements sigtable.Source.
func (s *RemoteSource) LookupEdge(src, dst uint64) ([]uint64, error) {
	if !s.lookup {
		return s.gen.Load().snap.LookupEdge(src, dst)
	}
	req := lookupReq{Module: s.module, Kind: kindEdge, End: src, Target: dst}
	_, touched, err := s.remote(req, func() (sigtable.Entry, []uint64, error) {
		t, e := s.gen.Load().snap.LookupEdge(src, dst)
		return sigtable.Entry{}, t, e
	})
	return touched, err
}

// wireReq translates one speculative batch query into the wire shape.
func (s *RemoteSource) wireReq(r sigtable.BatchReq) lookupReq {
	if r.Kind == sigtable.BatchEdge {
		return lookupReq{Module: s.module, Kind: kindEdge, End: r.End, Target: r.Want.Target}
	}
	req := lookupReq{Module: s.module, Kind: kindLookup, End: r.End, Sig: uint64(r.Sig)}
	if r.Want.CheckTarget {
		req.WantFlags |= wantTarget
		req.Target = r.Want.Target
	}
	if r.Want.CheckPred {
		req.WantFlags |= wantPred
		req.Pred = r.Want.Pred
	}
	return req
}

// LookupBatch implements sigtable.BatchSource: it resolves every query
// in as few wire round trips as possible (duplicates deduped before
// encode, in-flight twins coalesced, the rest packed into batch frames).
// This is the speculative path — unlike Lookup it performs NO cache
// fallback and NO degradation marking on transport failure: a failed
// speculative query comes back with its transport error and is simply
// dropped by the prefetcher, while the engine's own blocking lookups
// keep the degrade-to-snapshot semantics (and the SourceNote) to
// themselves. In snapshot mode queries are answered locally.
func (s *RemoteSource) LookupBatch(reqs []sigtable.BatchReq) []sigtable.BatchRes {
	out := make([]sigtable.BatchRes, len(reqs))
	if !s.lookup {
		snap := s.gen.Load().snap
		for i, r := range reqs {
			if r.Kind == sigtable.BatchEdge {
				out[i].Touched, out[i].Err = snap.LookupEdge(r.End, r.Want.Target)
			} else {
				out[i].Entry, out[i].Touched, out[i].Err = snap.Lookup(r.End, r.Sig, r.Want)
			}
		}
		return out
	}
	wire := make([]lookupReq, len(reqs))
	for i, r := range reqs {
		wire[i] = s.wireReq(r)
	}
	res, errs := s.c.lookupMany(wire)
	for i := range reqs {
		switch {
		case errs[i] != nil:
			out[i].Err = errs[i]
		case res[i].Verdict == verdictMiss:
			out[i].Touched, out[i].Err = res[i].Touched, sigtable.ErrMiss
		default:
			out[i].Entry, out[i].Touched = res[i].Entry, res[i].Touched
		}
	}
	return out
}

// LiveEpoch implements sigtable.BatchSource: the newest table generation
// the client has observed on any response.
func (s *RemoteSource) LiveEpoch() uint64 { return s.c.ServerEpoch() }

// RemoteLookups implements sigtable.BatchSource: true only in lookup
// mode, where blocking lookups cross the wire and prefetching pays.
func (s *RemoteSource) RemoteLookups() bool { return s.lookup }

// Interface conformance (compile-time).
var (
	_ sigtable.Source         = (*RemoteSource)(nil)
	_ sigtable.HealthReporter = (*RemoteSource)(nil)
	_ sigtable.BatchSource    = (*RemoteSource)(nil)
)

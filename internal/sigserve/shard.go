package sigserve

import (
	"fmt"
	"sync"
	"time"

	"rev/internal/sigtable"
)

// Server-side sharding (docs/DEPLOYMENT.md).
//
// A Server becomes one shard of a control plane when SetRing hands it
// the ring, its own identity, and the tenant universe. From then on it
// refuses connections for tenants it does not own with CodeWrongShard
// — naming the true owner in the error's hint fields so a misrouted
// client corrects itself in one round trip — and answers MsgTopology
// with the full membership so a client bootstrapped with a single
// address discovers the rest of the plane. SetAdmission arms the
// per-shard token bucket: requests beyond the sustained rate are
// answered CodeOverloaded with a retry-after hint instead of queueing,
// keeping shard latency bounded under overload (the revload sweep
// measures exactly this curve).

// ringState is a shard's installed topology: the ring, this shard's
// identity, and the bounded-load placement over the configured tenant
// universe. Swapped atomically so membership changes never block the
// serve path.
type ringState struct {
	ring   *Ring
	selfID string
	// owners is Place() over the configured tenants: the authoritative
	// replica set per namespace (may differ from the pure walk for
	// spilled tenants).
	owners map[string][]RingNode
}

// owned reports whether this shard is in the tenant's replica set, and
// the preferred owner to name in a redirect when it is not.
func (rs *ringState) owned(tenant string) (bool, RingNode) {
	set, ok := rs.owners[tenant]
	if !ok {
		// Tenant outside the configured universe: fall back to the pure
		// walk so the redirect still names a deterministic owner.
		set = rs.ring.Replicas(tenant)
	}
	for _, n := range set {
		if n.ID == rs.selfID {
			return true, n
		}
	}
	if len(set) == 0 {
		return false, RingNode{}
	}
	return false, set[0]
}

// SetRing installs the shard's view of the control-plane topology: the
// ring, this server's node ID, and the tenant universe the plane
// serves. Placement (bounded-load, see Ring.Place) is computed here
// once; every shard configured with the same inputs computes the same
// placement. Connections for tenants this shard does not own are
// refused with CodeWrongShard naming the true owner. A nil ring
// reverts the server to unsharded, own-everything behavior.
func (s *Server) SetRing(ring *Ring, selfID string, tenants []string) error {
	if ring == nil {
		s.ring.Store(nil)
		return nil
	}
	found := false
	for _, n := range ring.Nodes() {
		if n.ID == selfID {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("sigserve: self id %q is not in the ring", selfID)
	}
	s.ring.Store(&ringState{
		ring:   ring,
		selfID: selfID,
		owners: ring.Place(tenants),
	})
	if s.tel != nil && s.tel.ringEpoch != nil {
		s.tel.ringEpoch.Set(int64(ring.Epoch()))
	}
	return nil
}

// RingEpoch returns the installed topology generation (0 when
// unsharded).
func (s *Server) RingEpoch() uint64 {
	if rs := s.ring.Load(); rs != nil {
		return rs.ring.Epoch()
	}
	return 0
}

// Owns reports whether this server serves the tenant under the
// installed ring (always true when unsharded).
func (s *Server) Owns(tenant string) bool {
	rs := s.ring.Load()
	if rs == nil {
		return true
	}
	ok, _ := rs.owned(tenant)
	return ok
}

// tokenBucket is the shard's admission gate: a classic token bucket
// refilled at rate tokens/second with capacity burst. take either
// admits the request or reports how long until a token will exist.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// take admits one request (true) or returns the duration after which
// retrying can succeed.
func (b *tokenBucket) take() (bool, time.Duration) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	} else {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}

// SetAdmission arms per-shard admission control: post-handshake
// requests beyond rate requests/second (with a burst allowance) are
// answered CodeOverloaded carrying a retry-after hint, instead of
// queueing behind an overloaded shard. rate <= 0 disables. Safe to
// call while serving.
func (s *Server) SetAdmission(rate int, burst int) {
	if rate <= 0 {
		s.admit.Store(nil)
		return
	}
	if burst < 1 {
		burst = rate
	}
	s.admit.Store(&tokenBucket{rate: float64(rate), burst: float64(burst)})
}

// buildDelta computes the record-index patch list between two wire
// images of the same module (nil when no usable delta exists — format
// change, or more records changed than a patch list can carry).
// Removal needs no patches: the record count in the new table metadata
// tells the client to truncate.
func buildDelta(old, new *publishedTable) []deltaPatch {
	if old.table.Format != new.table.Format {
		return nil
	}
	recSize := sigtable.RecordSize
	if new.table.Format == sigtable.CFIOnly {
		recSize = sigtable.CFIRecordSize
	}
	if len(old.wire)%recSize != 0 || len(new.wire)%recSize != 0 {
		return nil
	}
	oldN, newN := len(old.wire)/recSize, len(new.wire)/recSize
	common := oldN
	if newN < common {
		common = newN
	}
	patches := []deltaPatch{}
	for i := 0; i < common; i++ {
		off := i * recSize
		if string(old.wire[off:off+recSize]) != string(new.wire[off:off+recSize]) {
			patches = append(patches, deltaPatch{Index: uint32(i), Rec: new.wire[off : off+recSize]})
		}
	}
	for i := common; i < newN; i++ {
		off := i * recSize
		patches = append(patches, deltaPatch{Index: uint32(i), Rec: new.wire[off : off+recSize]})
	}
	if len(patches) > maxListLen {
		return nil
	}
	return patches
}

// applyDelta rebuilds the new generation's wire image from a cached
// one plus a patch list: resize to the new record count (truncating
// removed records, zero-extending before appended ones land), overwrite
// each patched record, and verify the result hashes to the server's
// stated chain head. Any mismatch is an error; the caller falls back to
// a full fetch.
func applyDelta(old []byte, d snapshotDeltaData) ([]byte, error) {
	recSize := sigtable.RecordSize
	if d.Table.Format == sigtable.CFIOnly {
		recSize = sigtable.CFIRecordSize
	}
	// Records is an unvalidated wire u64: bound it by the same MaxPayload
	// ceiling the full-image path enforces before it can size a hostile
	// allocation (or overflow int on 32-bit).
	if d.Table.Records > uint64(MaxPayload/recSize) {
		return nil, fmt.Errorf("sigserve: delta names %d records of %d bytes, exceeding MaxPayload", d.Table.Records, recSize)
	}
	out := make([]byte, int(d.Table.Records)*recSize)
	copy(out, old)
	for _, p := range d.Patches {
		if len(p.Rec) != recSize {
			return nil, fmt.Errorf("sigserve: delta patch is %d bytes, records are %d", len(p.Rec), recSize)
		}
		off := int(p.Index) * recSize
		if off < 0 || off+recSize > len(out) {
			return nil, fmt.Errorf("sigserve: delta patch index %d outside %d records", p.Index, d.Table.Records)
		}
		copy(out[off:], p.Rec)
	}
	if snapHash(d.Table, out) != d.NewHash {
		return nil, fmt.Errorf("sigserve: delta chain mismatch: applied image does not hash to the server's chain head")
	}
	return out, nil
}

// handleSnapshotDelta answers MsgSnapshotDelta: a patch list when the
// client's stated generation matches the one this generation was
// diffed against (or is already current), a full image otherwise.
func (s *Server) handleSnapshotDelta(cs *connState, f Frame) bool {
	req, err := decodeSnapshotDeltaReq(f.Payload)
	if err != nil {
		return s.sendErr(cs, f.ReqID, CodeBadRequest, err.Error())
	}
	slot := cs.t.slot(req.Module)
	if slot == nil {
		return s.sendErr(cs, f.ReqID, CodeUnknownModule, req.Module)
	}
	pub := slot.Load()
	resp := snapshotDeltaData{Table: pub.table, Epoch: pub.epoch, NewHash: pub.hash}
	switch {
	case req.HaveEpoch == pub.epoch && req.HaveHash == pub.hash:
		// Already current: an empty patch list is the cheapest "no-op".
		resp.PrevHash = pub.hash
	case req.HaveEpoch == pub.prevEpoch && req.HaveHash == pub.prevHash && pub.patches != nil:
		resp.PrevHash = pub.prevHash
		resp.Patches = pub.patches
	default:
		// Unknown generation (client skipped a rotation, or chain
		// mismatch): fall back to the full image.
		resp.Full = 1
		resp.Recs = pub.wire
	}
	if s.tel != nil {
		if resp.Full != 0 {
			s.tel.deltaFulls.Inc()
		} else {
			s.tel.deltaHits.Inc()
		}
	}
	return s.reply(cs, f.ReqID, MsgSnapshotDeltaData, resp.encode())
}

// handleTopology answers MsgTopology with the installed ring membership
// (an empty, epoch-0 response when unsharded).
func (s *Server) handleTopology(cs *connState, f Frame) bool {
	var resp topologyData
	if rs := s.ring.Load(); rs != nil {
		cfg := rs.ring.Config()
		resp = topologyData{
			RingEpoch: rs.ring.Epoch(),
			Replicas:  uint8(cfg.Replicas),
			VNodes:    uint16(cfg.VNodes),
			Self:      rs.selfID,
			Nodes:     rs.ring.Nodes(),
		}
	}
	return s.reply(cs, f.ReqID, MsgTopologyData, resp.encode())
}

// sendErrMsg writes one MsgError, hint fields included for the codes
// that define them, and counts it by code.
func (s *Server) sendErrMsg(cs *connState, reqID uint64, m errorMsg) bool {
	if s.tel != nil && int(m.Code) > 0 && int(m.Code) < len(s.tel.errCodes) {
		s.tel.errCodes[m.Code].Inc()
	}
	return s.reply(cs, reqID, MsgError, m.encode())
}

package sigtable

import (
	"encoding/binary"
	"fmt"

	"rev/internal/chash"
	"rev/internal/crypt"
	"rev/internal/prog"
)

// Source is the lookup interface a SAG register group holds: a *Reader
// (decrypt-on-access out of simulated RAM, the single-engine path), a
// *Snapshot (a fully decrypted, immutable view that any number of
// engines may share across goroutines — the fleet path), or a remote
// source (internal/sigserve's RemoteSource, which fetches from a
// revserved signature-distribution service). All implementations return
// identical entries and identical touched RAM addresses for identical
// tables, so the timing model cannot tell them apart.
//
// Error contract: a nil error means the entry/edge was found and is
// legal; ErrMiss means the table definitively does not contain it (a
// validation verdict); any other error — conventionally wrapping
// ErrUnavailable — means the source could not answer and NO verdict
// exists. Callers must distinguish the two with errors.Is (see
// errors.go); treating an unavailable source as a miss would turn a
// network fault into a false violation, and treating it as a hit would
// be a silent pass.
type Source interface {
	// Lookup finds the entry for (end, sig), walking the spill chain
	// only as far as want requires. See Reader.Lookup.
	Lookup(end uint64, sig chash.Sig, want Want) (Entry, []uint64, error)
	// LookupAll is Lookup with an exhaustive spill walk.
	LookupAll(end uint64, sig chash.Sig) (Entry, []uint64, error)
	// LookupEdge validates a computed edge against a CFI-only table.
	LookupEdge(src, dst uint64) ([]uint64, error)
}

var (
	_ Source = (*Reader)(nil)
	_ Source = (*Snapshot)(nil)

	_ ScratchSource = (*Reader)(nil)
	_ ScratchSource = (*Snapshot)(nil)
)

// Snapshot is an immutable, fully decrypted copy of a signature table.
//
// A Reader decrypts records out of simulated RAM on every SC-miss walk
// and is therefore tied to one engine's address space; a Snapshot holds
// every decrypted record in plain Go memory and is never written after
// construction, so it is safe for concurrent use by any number of
// engines without locks. Lookups still report the RAM addresses the
// hardware walk *would* touch (computed from the frozen table base), so
// per-engine miss-service timing is identical to the Reader path.
//
// In the threat model this corresponds to the decrypt logic inside the
// CPU package: the plaintext records exist only on the validator side,
// never in simulated RAM.
type Snapshot struct {
	table Table // metadata copy; Base frozen at snapshot/rebase time
	recs  [][RecordSize / 4]uint32
	cfi   []uint64
}

// Snapshot decrypts the Reader's whole table into an immutable Snapshot.
func (r *Reader) Snapshot() *Snapshot {
	s := &Snapshot{table: *r.Table}
	var scratch []uint64
	if r.Table.Format == CFIOnly {
		s.cfi = make([]uint64, r.Table.Records)
		for i := range s.cfi {
			s.cfi[i] = r.cfiRecord(uint64(i), &scratch)
		}
		return s
	}
	s.recs = make([][RecordSize / 4]uint32, r.Table.Records)
	for i := range s.recs {
		s.recs[i] = r.record(uint64(i), &scratch)
	}
	return s
}

// SnapshotFromImage decrypts a serialized table image (the output of
// Build, before or after Install) into a Snapshot without going through
// simulated RAM. The wrapped table key is unwrapped via the CPU key
// store, exactly as NewReader does. The snapshot's base is taken from
// t.Base (zero until WithBase or Install assigns one).
func SnapshotFromImage(t *Table, img []byte, ks *crypt.KeyStore) (*Snapshot, error) {
	if uint64(len(img)) != t.Size || len(img) < HeaderSize {
		return nil, fmt.Errorf("sigtable: image size %d does not match table size %d", len(img), t.Size)
	}
	cipher := crypt.NewCipher(ks.Unwrap(WrappedKeyFromImage(img)))
	s := &Snapshot{table: *t}
	if t.Format == CFIOnly {
		s.cfi = make([]uint64, t.Records)
		for i := range s.cfi {
			var buf [CFIRecordSize]byte
			copy(buf[:], img[HeaderSize+i*CFIRecordSize:])
			cipher.DecryptEntry(uint64(i), buf[:])
			s.cfi[i] = binary.LittleEndian.Uint64(buf[:])
		}
		return s, nil
	}
	s.recs = make([][RecordSize / 4]uint32, t.Records)
	for i := range s.recs {
		var buf [RecordSize]byte
		copy(buf[:], img[HeaderSize+i*RecordSize:])
		cipher.DecryptEntry(uint64(i), buf[:])
		for w := range s.recs[i] {
			s.recs[i][w] = binary.LittleEndian.Uint32(buf[4*w:])
		}
	}
	return s, nil
}

// WithBase returns a snapshot sharing the same decrypted records but
// reporting touched addresses relative to the given table base — used
// when the table was never installed in a particular engine's RAM and a
// canonical base (e.g. prog.SigBase) stands in for it.
func (s *Snapshot) WithBase(base uint64) *Snapshot {
	c := *s
	c.table.Base = base
	return &c
}

// Meta returns a copy of the snapshot's table metadata.
func (s *Snapshot) Meta() Table { return s.table }

// recordSource implementation (see reader.go): records come from the
// decrypted copy; touched addresses are computed from the frozen base.
func (s *Snapshot) geom() *Table { return &s.table }

func (s *Snapshot) record(idx uint64, touched *[]uint64) [RecordSize / 4]uint32 {
	*touched = append(*touched, recordAddr(&s.table, idx))
	return s.recs[idx]
}

func (s *Snapshot) cfiRecord(idx uint64, touched *[]uint64) uint64 {
	*touched = append(*touched, recordAddr(&s.table, idx))
	return s.cfi[idx]
}

// Lookup finds the entry for (end, sig); see Reader.Lookup. Safe for
// concurrent use.
func (s *Snapshot) Lookup(end uint64, sig chash.Sig, want Want) (Entry, []uint64, error) {
	return lookup(s, end, sig, want, false, new(Scratch))
}

// LookupScratch is Lookup decoding into caller-owned scratch; the result
// aliases sc until its next use. The snapshot itself stays safe for
// concurrent use — each caller brings its own Scratch.
func (s *Snapshot) LookupScratch(end uint64, sig chash.Sig, want Want, sc *Scratch) (Entry, []uint64, error) {
	return lookup(s, end, sig, want, false, sc)
}

// LookupAll is Lookup with an exhaustive spill walk. Safe for
// concurrent use.
func (s *Snapshot) LookupAll(end uint64, sig chash.Sig) (Entry, []uint64, error) {
	return lookup(s, end, sig, Want{}, true, new(Scratch))
}

// LookupEdge validates a computed edge against a CFI-only snapshot.
// Safe for concurrent use.
func (s *Snapshot) LookupEdge(src, dst uint64) ([]uint64, error) {
	return lookupEdge(s, src, dst, new(Scratch))
}

// LookupEdgeScratch is LookupEdge recording touched addresses into
// caller-owned scratch; the result aliases sc until its next use.
func (s *Snapshot) LookupEdgeScratch(src, dst uint64, sc *Scratch) ([]uint64, error) {
	return lookupEdge(s, src, dst, sc)
}

// AppendWire appends the snapshot's decrypted records to dst in the
// wire encoding the signature-distribution protocol uses
// (docs/PROTOCOL.md): for hashed formats, Records fixed-size records of
// six little-endian uint32 words each; for CFI-only, Records
// little-endian uint64 words. The table metadata travels separately
// (the SNAPSHOT_DATA header), so the payload is position-independent.
func (s *Snapshot) AppendWire(dst []byte) []byte {
	if s.table.Format == CFIOnly {
		for _, w := range s.cfi {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		return dst
	}
	for i := range s.recs {
		for _, w := range s.recs[i] {
			dst = binary.LittleEndian.AppendUint32(dst, w)
		}
	}
	return dst
}

// WireSize returns the exact byte length AppendWire will produce —
// Records * RecordSize for hashed formats, Records * CFIRecordSize for
// CFI-only.
func (s *Snapshot) WireSize() int {
	if s.table.Format == CFIOnly {
		return len(s.cfi) * CFIRecordSize
	}
	return len(s.recs) * RecordSize
}

// SnapshotFromWire reconstructs a Snapshot from the wire encoding
// produced by AppendWire plus the table metadata that travelled with it.
// The result is bit-identical to the snapshot the server exported:
// identical entries, identical touched-address reporting (from t.Base),
// so a remote validation engine produces byte-identical verdicts and
// timing to an in-process one.
func SnapshotFromWire(t Table, payload []byte) (*Snapshot, error) {
	s := &Snapshot{table: t}
	if t.Format == CFIOnly {
		if uint64(len(payload)) != t.Records*CFIRecordSize {
			return nil, fmt.Errorf("sigtable: wire payload %d bytes, want %d for %d CFI records",
				len(payload), t.Records*CFIRecordSize, t.Records)
		}
		s.cfi = make([]uint64, t.Records)
		for i := range s.cfi {
			s.cfi[i] = binary.LittleEndian.Uint64(payload[i*CFIRecordSize:])
		}
		return s, nil
	}
	if uint64(len(payload)) != t.Records*RecordSize {
		return nil, fmt.Errorf("sigtable: wire payload %d bytes, want %d for %d records",
			len(payload), t.Records*RecordSize, t.Records)
	}
	s.recs = make([][RecordSize / 4]uint32, t.Records)
	for i := range s.recs {
		off := i * RecordSize
		for w := range s.recs[i] {
			s.recs[i][w] = binary.LittleEndian.Uint32(payload[off+4*w:])
		}
	}
	return s, nil
}

// SigBaseAlign rounds a table size up to the page multiple the loader
// uses when placing consecutive tables at prog.SigBase — shared by
// core.Prepare and every table provider so local, remote, and
// RAM-installed tables get identical bases (and therefore identical
// SC-miss timing).
func SigBaseAlign(size uint64) uint64 {
	return (size + prog.PageSize - 1) &^ (prog.PageSize - 1)
}

// Package sigserve implements the remote signature-table attestation
// service: a length-prefixed binary protocol (stdlib net + encoding/binary
// only) through which a verification authority — the revserved daemon —
// distributes encrypted-table snapshots and answers per-entry lookups for
// any number of measurement processes.
//
// The package has two halves. The Server side loads built module tables
// (per-tenant namespaces, hot snapshot swap on reload) and serves
// concurrent connections. The client side is a resilient RemoteSource
// implementing sigtable.Source: connection pooling, coalescing and
// batching of concurrent misses, per-request deadlines, retries with
// exponential backoff and jitter, a circuit breaker, and graceful
// degradation to a locally cached snapshot whose staleness is surfaced as
// a sigtable.SourceNote — never a silent pass, never a false violation.
//
// The wire format is specified exhaustively in docs/PROTOCOL.md; this
// file is the only place frames are encoded or decoded, so the document
// and the implementation cannot drift independently.
package sigserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rev/internal/chash"
	"rev/internal/isa"
	"rev/internal/sigtable"
)

// Version is the one protocol version this implementation speaks
// (docs/PROTOCOL.md "Versions" records why there is only one). Hello
// carries the client's offered [min,max] range; a server accepts any
// range that contains Version, answers with Version in
// MsgWelcome.Version, and every later frame on the connection carries
// it. The range stays on the wire as the forward-compatibility seam: a
// newer client may offer [Version,N] and append Hello fields this
// server ignores (decodeHello).
const Version = 0x04

// FlagTraced marks a frame whose payload begins with an 8-byte
// little-endian trace ID (docs/PROTOCOL.md "Request tracing").
const FlagTraced uint16 = 1 << 0

// Frame header geometry (docs/PROTOCOL.md "Frame layout").
const (
	// headerSize is the fixed number of bytes before the payload.
	headerSize = 16
	// lenFieldCovers is how many header bytes the length field itself
	// covers (everything after the 4-byte length word).
	lenFieldCovers = headerSize - 4
	// MaxPayload bounds a frame's payload; larger frames are a protocol
	// error (guards both sides against corrupt or hostile lengths).
	MaxPayload = 16 << 20
	// frameChunk is the most payload memory ReadFrame commits ahead of
	// the bytes that fill it: shorter payloads get one exact allocation,
	// longer ones grow as their bytes arrive.
	frameChunk = 64 << 10
	// maxStringLen bounds any length-prefixed string on the wire.
	maxStringLen = 1 << 10
	// maxListLen bounds any u16-counted list on the wire.
	maxListLen = 1 << 14
)

// MsgType identifies a frame's payload schema.
type MsgType uint8

// Wire message types. Requests flow client to server; each has exactly
// one success response type, and any request may instead be answered
// with MsgError.
const (
	// MsgHello opens a connection: version range + tenant name.
	MsgHello MsgType = 0x01
	// MsgWelcome accepts a Hello: chosen version + server table epoch.
	MsgWelcome MsgType = 0x02
	// MsgPing is a liveness probe.
	MsgPing MsgType = 0x03
	// MsgPong answers MsgPing.
	MsgPong MsgType = 0x04
	// MsgModules asks for the tenant's module catalogue.
	MsgModules MsgType = 0x05
	// MsgModuleList answers MsgModules with table metadata per module.
	MsgModuleList MsgType = 0x06
	// MsgSnapshot asks for one module's full decrypted record image.
	MsgSnapshot MsgType = 0x07
	// MsgSnapshotData answers MsgSnapshot: metadata, epoch, records.
	MsgSnapshotData MsgType = 0x08
	// MsgLookup asks for a single entry or edge verdict.
	MsgLookup MsgType = 0x09
	// MsgLookupResult answers MsgLookup.
	MsgLookupResult MsgType = 0x0A
	// MsgLookupBatch carries several lookup requests in one frame (the
	// client's miss-coalescing path).
	MsgLookupBatch MsgType = 0x0B
	// MsgLookupBatchResult answers MsgLookupBatch, results in order.
	MsgLookupBatchResult MsgType = 0x0C
	// MsgError reports a request failure: code + detail string.
	MsgError MsgType = 0x0D
	// MsgEvidencePut uploads one attestation evidence stream
	// (internal/evidence) under a name in the tenant's namespace.
	MsgEvidencePut MsgType = 0x0E
	// MsgEvidenceAck answers MsgEvidencePut: bytes retained + how many
	// older streams were evicted to make room.
	MsgEvidenceAck MsgType = 0x0F
	// MsgEvidenceList asks for the tenant's retained evidence catalogue.
	MsgEvidenceList MsgType = 0x10
	// MsgEvidenceCatalog answers MsgEvidenceList: name + size per stream.
	MsgEvidenceCatalog MsgType = 0x11
	// MsgEvidenceGet fetches one retained evidence stream by name.
	MsgEvidenceGet MsgType = 0x12
	// MsgEvidenceData answers MsgEvidenceGet with the stream bytes.
	MsgEvidenceData MsgType = 0x13
	// MsgSnapshotDelta asks for the changes between the client's cached
	// snapshot (identified by its chain hash) and the module's current
	// generation.
	MsgSnapshotDelta MsgType = 0x14
	// MsgSnapshotDeltaData answers MsgSnapshotDelta: either a patch list
	// chained off the prior snapshot's hash, or (on chain mismatch) the
	// full record image.
	MsgSnapshotDeltaData MsgType = 0x15
	// MsgTopology asks for the serving side's ring topology.
	MsgTopology MsgType = 0x16
	// MsgTopologyData answers MsgTopology: ring epoch, replication
	// factor, virtual-node count, and the shard membership list.
	MsgTopologyData MsgType = 0x17
)

// ErrCode classifies a MsgError payload.
type ErrCode uint16

// Wire error codes (docs/PROTOCOL.md "Error codes").
const (
	// CodeBadVersion: the client's offered version range does not
	// contain Version. Fatal for the connection.
	CodeBadVersion ErrCode = 1
	// CodeUnknownTenant: Hello named a tenant the server does not host.
	CodeUnknownTenant ErrCode = 2
	// CodeUnknownModule: request named a module absent from the tenant.
	CodeUnknownModule ErrCode = 3
	// CodeBadRequest: malformed payload or out-of-order message.
	CodeBadRequest ErrCode = 4
	// CodeShutdown: server is draining; retry against another replica.
	CodeShutdown ErrCode = 5
	// CodeInternal: unexpected server-side failure.
	CodeInternal ErrCode = 6
	// CodeEvidenceTooLarge: an uploaded evidence stream exceeds the
	// server's per-stream retention cap. The stream is not retained.
	CodeEvidenceTooLarge ErrCode = 7
	// CodeUnknownEvidence: MsgEvidenceGet named a stream the tenant does
	// not retain (never uploaded, or already evicted).
	CodeUnknownEvidence ErrCode = 8
	// CodeWrongShard: this shard does not own the tenant under the
	// current ring placement. The error carries the owning shard's
	// address and the server's ring epoch as hints; clients re-route to
	// the named owner (bounded by ClientConfig.MaxRedirects).
	CodeWrongShard ErrCode = 9
	// CodeOverloaded: the shard's admission token bucket rejected the
	// request. The error carries a retry-after-milliseconds hint;
	// overload is backpressure, not failure, so clients retry after the
	// hint instead of tripping the breaker.
	CodeOverloaded ErrCode = 10
)

// String renders the code as its wire-spec name (docs/PROTOCOL.md).
func (c ErrCode) String() string {
	switch c {
	case CodeBadVersion:
		return "bad-version"
	case CodeUnknownTenant:
		return "unknown-tenant"
	case CodeUnknownModule:
		return "unknown-module"
	case CodeBadRequest:
		return "bad-request"
	case CodeShutdown:
		return "shutdown"
	case CodeInternal:
		return "internal"
	case CodeEvidenceTooLarge:
		return "evidence-too-large"
	case CodeUnknownEvidence:
		return "unknown-evidence"
	case CodeWrongShard:
		return "wrong-shard"
	case CodeOverloaded:
		return "overloaded"
	}
	return fmt.Sprintf("code(%d)", uint16(c))
}

// Frame is one decoded wire frame: the fixed header fields plus the raw
// payload bytes (schema per Type).
type Frame struct {
	Version uint8
	Type    MsgType
	Flags   uint16
	ReqID   uint64
	Payload []byte
}

// AppendFrame encodes a frame onto dst and returns the extended slice.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(lenFieldCovers+len(f.Payload)))
	dst = append(dst, f.Version, uint8(f.Type))
	dst = binary.LittleEndian.AppendUint16(dst, f.Flags)
	dst = binary.LittleEndian.AppendUint64(dst, f.ReqID)
	return append(dst, f.Payload...)
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("sigserve: payload %d exceeds MaxPayload", len(f.Payload))
	}
	_, err := w.Write(AppendFrame(nil, f))
	return err
}

// errFrame is the decode-failure sentinel: the byte stream violated the
// framing rules (bad length, truncation, oversize). Connections that see
// it must be torn down — there is no way to resynchronise.
var errFrame = errors.New("sigserve: malformed frame")

// ReadFrame reads exactly one frame. A short read mid-frame returns
// io.ErrUnexpectedEOF; a clean EOF before any byte returns io.EOF; a
// length field below the header minimum or above MaxPayload returns an
// error wrapping errFrame. The declared length is not trusted for
// allocation: a header declaring MaxPayload followed by nothing costs
// one frameChunk, not 16 MiB.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < lenFieldCovers || n > lenFieldCovers+MaxPayload {
		return Frame{}, fmt.Errorf("%w: length %d", errFrame, n)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f := Frame{
		Version: hdr[4],
		Type:    MsgType(hdr[5]),
		Flags:   binary.LittleEndian.Uint16(hdr[6:8]),
		ReqID:   binary.LittleEndian.Uint64(hdr[8:16]),
	}
	if pl := int(n - lenFieldCovers); pl > 0 {
		var err error
		if f.Payload, err = readPayload(r, pl); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	return f, nil
}

// readPayload reads an n-byte payload. The buffer starts at
// min(n, frameChunk), so a payload up to frameChunk gets one exact
// allocation and one read; a larger one doubles the buffer (capped at n)
// only once the bytes already read fill it, so no allocation exceeds one
// chunk or twice the bytes the peer has sent.
func readPayload(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, 0, min(n, frameChunk))
	for len(b) < n {
		if len(b) == cap(b) {
			grown := make([]byte, len(b), min(2*cap(b), n))
			copy(grown, b)
			b = grown
		}
		m, err := io.ReadFull(r, b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// withTrace returns payload prefixed with the 8-byte little-endian
// trace ID (the FlagTraced wire shape). The input slice is not aliased.
func withTrace(id uint64, payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint64(out, id)
	copy(out[8:], payload)
	return out
}

// TakeTrace strips the FlagTraced trace-ID prefix from the frame's
// payload when the flag is set. It returns the trace ID and true,
// leaving f.Payload pointing at the logical payload; ok=false with id 0
// when the frame is untraced. A flagged frame too short to hold the
// prefix returns ok=false with traced=true so callers can answer
// CodeBadRequest.
func (f *Frame) TakeTrace() (id uint64, ok, traced bool) {
	if f.Flags&FlagTraced == 0 {
		return 0, false, false
	}
	if len(f.Payload) < 8 {
		return 0, false, true
	}
	id = binary.LittleEndian.Uint64(f.Payload)
	f.Payload = f.Payload[8:]
	return id, true, true
}

// ---- payload primitives ----------------------------------------------

// enc appends wire primitives to a byte slice.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

func (e *enc) str(s string) {
	if len(s) > maxStringLen {
		s = s[:maxStringLen]
	}
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) addrs(a []uint64) {
	e.u16(uint16(len(a)))
	for _, v := range a {
		e.u64(v)
	}
}

// dec is a bounds-checked payload cursor. After the first violation every
// read returns zero and err() reports the failure; decoders therefore
// never panic on torn, short, or hostile payloads (the fuzz target's
// contract).
type dec struct {
	b    []byte
	off  int
	fail error
}

func (d *dec) bad(what string) {
	if d.fail == nil {
		d.fail = fmt.Errorf("sigserve: truncated or malformed payload at %s (offset %d)", what, d.off)
	}
}

func (d *dec) take(n int, what string) []byte {
	if d.fail != nil || n < 0 || d.off+n > len(d.b) {
		d.bad(what)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *dec) u8(what string) uint8 {
	if s := d.take(1, what); s != nil {
		return s[0]
	}
	return 0
}

func (d *dec) u16(what string) uint16 {
	if s := d.take(2, what); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (d *dec) u32(what string) uint32 {
	if s := d.take(4, what); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (d *dec) u64(what string) uint64 {
	if s := d.take(8, what); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (d *dec) str(what string) string {
	n := int(d.u16(what))
	if n > maxStringLen {
		d.bad(what)
		return ""
	}
	return string(d.take(n, what))
}

func (d *dec) addrs(what string) []uint64 {
	n := int(d.u16(what))
	if n > maxListLen {
		d.bad(what)
		return nil
	}
	// Reject counts the remaining bytes cannot possibly satisfy before
	// allocating (hostile-length guard).
	if d.fail == nil && d.off+8*n > len(d.b) {
		d.bad(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	a := make([]uint64, n)
	for i := range a {
		a[i] = d.u64(what)
	}
	if d.fail != nil {
		return nil
	}
	return a
}

// done checks that the payload was consumed exactly: trailing bytes are
// as much a framing violation as missing ones.
func (d *dec) done() error {
	if d.fail != nil {
		return d.fail
	}
	if d.off != len(d.b) {
		return fmt.Errorf("sigserve: %d trailing bytes in payload", len(d.b)-d.off)
	}
	return nil
}

// ---- message payloads ------------------------------------------------

// helloMsg is MsgHello's payload: the client's offered version range
// and the tenant it binds. Its layout is fixed for every version, since
// it is the one message a server must parse before it knows which
// version the client speaks; data for newer versions travels
// server->client in Welcome and in error hints instead.
type helloMsg struct {
	MinVersion, MaxVersion uint8
	Tenant                 string
}

func (m helloMsg) encode() []byte {
	var e enc
	e.u8(m.MinVersion)
	e.u8(m.MaxVersion)
	e.str(m.Tenant)
	return e.b
}

func decodeHello(b []byte) (helloMsg, error) {
	d := dec{b: b}
	m := helloMsg{
		MinVersion: d.u8("minVersion"),
		MaxVersion: d.u8("maxVersion"),
		Tenant:     d.str("tenant"),
	}
	// Forward compatibility: a client offering a newer version than this
	// server speaks may append Hello fields we do not know. The
	// connection never runs above our version, so ignoring them is safe —
	// and it is what lets a future version extend Hello at all.
	if d.fail == nil && m.MaxVersion > Version {
		d.off = len(d.b)
	}
	return m, d.done()
}

// welcomeMsg is MsgWelcome's payload.
type welcomeMsg struct {
	Version uint8
	// Epoch is the server's table-generation counter at accept time; a
	// client comparing it against its cached snapshot epoch learns about
	// staleness without a separate round trip.
	Epoch uint64
	// RingEpoch is the server's topology generation (0 when unsharded).
	RingEpoch uint64
}

func (m welcomeMsg) encode() []byte {
	var e enc
	e.u8(m.Version)
	e.u64(m.Epoch)
	e.u64(m.RingEpoch)
	return e.b
}

func decodeWelcome(b []byte) (welcomeMsg, error) {
	d := dec{b: b}
	m := welcomeMsg{Version: d.u8("version"), Epoch: d.u64("epoch"), RingEpoch: d.u64("ringEpoch")}
	return m, d.done()
}

// errorMsg is MsgError's payload: code + detail, followed by three hint
// fields only for the codes that define them (CodeWrongShard carries
// Owner+RingEpoch, CodeOverloaded carries RetryAfterMillis); every
// other code is the bare code+detail payload.
type errorMsg struct {
	Code   ErrCode
	Detail string
	// RetryAfterMillis is the CodeOverloaded backpressure hint: how long
	// the admission bucket needs before it can admit this request.
	RetryAfterMillis uint32
	// Owner is the CodeWrongShard hint: the owning shard's address.
	Owner string
	// RingEpoch is the server's topology generation at rejection time.
	RingEpoch uint64
}

// hasHints reports whether the code defines the hint fields.
func (m errorMsg) hasHints() bool {
	return m.Code == CodeWrongShard || m.Code == CodeOverloaded
}

func (m errorMsg) encode() []byte {
	var e enc
	e.u16(uint16(m.Code))
	e.str(m.Detail)
	if m.hasHints() {
		e.u32(m.RetryAfterMillis)
		e.str(m.Owner)
		e.u64(m.RingEpoch)
	}
	return e.b
}

func decodeError(b []byte) (errorMsg, error) {
	d := dec{b: b}
	m := errorMsg{Code: ErrCode(d.u16("code")), Detail: d.str("detail")}
	if d.fail == nil && d.off < len(d.b) {
		m.RetryAfterMillis = d.u32("retryAfterMillis")
		m.Owner = d.str("owner")
		m.RingEpoch = d.u64("ringEpoch")
	}
	return m, d.done()
}

// tableMeta mirrors sigtable.Table on the wire.
func encodeTableMeta(e *enc, t sigtable.Table) {
	e.u8(uint8(t.Format))
	e.str(t.Module)
	e.u64(t.Base)
	e.u64(t.Buckets)
	e.u64(t.Records)
	e.u64(t.Size)
	e.u64(t.CodeBytes)
	e.u64(t.BinaryBytes)
}

func decodeTableMeta(d *dec) sigtable.Table {
	return sigtable.Table{
		Format:      sigtable.Format(d.u8("format")),
		Module:      d.str("module"),
		Base:        d.u64("base"),
		Buckets:     d.u64("buckets"),
		Records:     d.u64("records"),
		Size:        d.u64("size"),
		CodeBytes:   d.u64("codeBytes"),
		BinaryBytes: d.u64("binaryBytes"),
	}
}

// moduleInfo is one catalogue line in MsgModuleList.
type moduleInfo struct {
	Table sigtable.Table
	Epoch uint64
}

// moduleListMsg is MsgModuleList's payload.
type moduleListMsg struct{ Modules []moduleInfo }

func (m moduleListMsg) encode() []byte {
	var e enc
	e.u16(uint16(len(m.Modules)))
	for _, mi := range m.Modules {
		encodeTableMeta(&e, mi.Table)
		e.u64(mi.Epoch)
	}
	return e.b
}

func decodeModuleList(b []byte) (moduleListMsg, error) {
	d := dec{b: b}
	n := int(d.u16("count"))
	if n > maxListLen {
		d.bad("count")
		n = 0
	}
	var m moduleListMsg
	for i := 0; i < n && d.fail == nil; i++ {
		m.Modules = append(m.Modules, moduleInfo{
			Table: decodeTableMeta(&d),
			Epoch: d.u64("epoch"),
		})
	}
	return m, d.done()
}

// snapshotReq is MsgSnapshot's payload.
type snapshotReq struct{ Module string }

func (m snapshotReq) encode() []byte {
	var e enc
	e.str(m.Module)
	return e.b
}

func decodeSnapshotReq(b []byte) (snapshotReq, error) {
	d := dec{b: b}
	m := snapshotReq{Module: d.str("module")}
	return m, d.done()
}

// snapshotData is MsgSnapshotData's payload: the module's table
// metadata, its epoch, and the decrypted record image in
// sigtable.AppendWire encoding.
type snapshotData struct {
	Table sigtable.Table
	Epoch uint64
	Recs  []byte
}

func (m snapshotData) encode() []byte {
	var e enc
	encodeTableMeta(&e, m.Table)
	e.u64(m.Epoch)
	e.u32(uint32(len(m.Recs)))
	e.b = append(e.b, m.Recs...)
	return e.b
}

func decodeSnapshotData(b []byte) (snapshotData, error) {
	d := dec{b: b}
	m := snapshotData{Table: decodeTableMeta(&d), Epoch: d.u64("epoch")}
	n := int(d.u32("recsLen"))
	if n > MaxPayload {
		d.bad("recsLen")
		n = 0
	}
	m.Recs = append([]byte(nil), d.take(n, "recs")...)
	return m, d.done()
}

// snapshotDeltaReq is MsgSnapshotDelta's payload: the client names the
// snapshot generation it already holds (epoch + snapHash of the wire
// image) and asks for just the records that changed since.
type snapshotDeltaReq struct {
	Module    string
	HaveEpoch uint64
	HaveHash  uint64
}

func (m snapshotDeltaReq) encode() []byte {
	var e enc
	e.str(m.Module)
	e.u64(m.HaveEpoch)
	e.u64(m.HaveHash)
	return e.b
}

func decodeSnapshotDeltaReq(b []byte) (snapshotDeltaReq, error) {
	d := dec{b: b}
	m := snapshotDeltaReq{
		Module:    d.str("module"),
		HaveEpoch: d.u64("haveEpoch"),
		HaveHash:  d.u64("haveHash"),
	}
	return m, d.done()
}

// deltaPatch is one changed record in a snapshot delta: the record's
// index in the wire image and its new bytes (one fixed-size record —
// RecordSize for hashed formats, CFIRecordSize for CFI-only tables).
type deltaPatch struct {
	Index uint32
	Rec   []byte
}

// snapshotDeltaData is MsgSnapshotDeltaData's payload. When Full is 0
// the response is a patch list against the client's stated generation:
// the client resizes its cached wire image to the new record count,
// overwrites the patched records, and verifies the result hashes to
// NewHash (PrevHash re-states what the server believes the client
// holds, chaining the delta off the prior snapshot). When Full is 1 —
// the server can't produce a delta from the client's generation — Recs
// carries a complete image, same encoding as snapshotData.
type snapshotDeltaData struct {
	Table    sigtable.Table
	Epoch    uint64
	PrevHash uint64
	NewHash  uint64
	Full     uint8
	Recs     []byte       // Full == 1
	Patches  []deltaPatch // Full == 0
}

func (m snapshotDeltaData) encode() []byte {
	var e enc
	encodeTableMeta(&e, m.Table)
	e.u64(m.Epoch)
	e.u64(m.PrevHash)
	e.u64(m.NewHash)
	e.u8(m.Full)
	if m.Full != 0 {
		e.u32(uint32(len(m.Recs)))
		e.b = append(e.b, m.Recs...)
		return e.b
	}
	e.u32(uint32(len(m.Patches)))
	for _, p := range m.Patches {
		e.u32(p.Index)
		e.u16(uint16(len(p.Rec)))
		e.b = append(e.b, p.Rec...)
	}
	return e.b
}

func decodeSnapshotDeltaData(b []byte) (snapshotDeltaData, error) {
	d := dec{b: b}
	m := snapshotDeltaData{
		Table:    decodeTableMeta(&d),
		Epoch:    d.u64("epoch"),
		PrevHash: d.u64("prevHash"),
		NewHash:  d.u64("newHash"),
		Full:     d.u8("full"),
	}
	if m.Full != 0 {
		n := int(d.u32("recsLen"))
		if n > MaxPayload {
			d.bad("recsLen")
			n = 0
		}
		m.Recs = append([]byte(nil), d.take(n, "recs")...)
		return m, d.done()
	}
	n := int(d.u32("patchCount"))
	if n > maxListLen {
		d.bad("patchCount")
		n = 0
	}
	for i := 0; i < n && d.fail == nil; i++ {
		idx := d.u32("patch.index")
		sz := int(d.u16("patch.recLen"))
		m.Patches = append(m.Patches, deltaPatch{
			Index: idx,
			Rec:   append([]byte(nil), d.take(sz, "patch.rec")...),
		})
	}
	return m, d.done()
}

// topologyData is MsgTopologyData's payload: the serving shard's view
// of ring membership, so a client bootstrapped with one address can
// discover the rest of the plane (MsgTopology's request has no
// payload).
type topologyData struct {
	RingEpoch uint64
	Replicas  uint8
	VNodes    uint16
	Self      string     // responding shard's ring ID ("" when unsharded)
	Nodes     []RingNode // sorted by ID; empty when unsharded
}

func (m topologyData) encode() []byte {
	var e enc
	e.u64(m.RingEpoch)
	e.u8(m.Replicas)
	e.u16(m.VNodes)
	e.str(m.Self)
	e.u16(uint16(len(m.Nodes)))
	for _, n := range m.Nodes {
		e.str(n.ID)
		e.str(n.Addr)
	}
	return e.b
}

func decodeTopologyData(b []byte) (topologyData, error) {
	d := dec{b: b}
	m := topologyData{
		RingEpoch: d.u64("ringEpoch"),
		Replicas:  d.u8("replicas"),
		VNodes:    d.u16("vnodes"),
		Self:      d.str("self"),
	}
	n := int(d.u16("nodeCount"))
	if n > MaxRingNodes {
		d.bad("nodeCount")
		n = 0
	}
	for i := 0; i < n && d.fail == nil; i++ {
		m.Nodes = append(m.Nodes, RingNode{
			ID:   d.str("node.id"),
			Addr: d.str("node.addr"),
		})
	}
	return m, d.done()
}

// snapHash digests a snapshot wire image to the u64 that chains
// snapshot deltas: the first eight bytes (little-endian) of the
// repo-wide CubeHash over a domain-separated header (format, module,
// record count) plus the image. Both sides compute it over the exact
// bytes of sigtable.AppendWire, so agreement implies bit-identical
// snapshots.
func snapHash(t sigtable.Table, wire []byte) uint64 {
	var e enc
	e.str("rev/snap\x00")
	e.u8(uint8(t.Format))
	e.str(t.Module)
	e.u64(t.Records)
	e.b = append(e.b, wire...)
	return binary.LittleEndian.Uint64(chash.Sum(e.b)[:8])
}

// Lookup kinds (lookupReq.Kind).
const (
	// kindLookup is a progressive walk (sigtable.Source.Lookup).
	kindLookup = 0
	// kindLookupAll is an exhaustive walk (LookupAll).
	kindLookupAll = 1
	// kindEdge is a CFI edge check (LookupEdge); End carries the source
	// address and Target the destination.
	kindEdge = 2
)

// Want flag bits (lookupReq.WantFlags).
const (
	wantTarget = 1 << 0
	wantPred   = 1 << 1
)

// lookupReq is one lookup request, standalone (MsgLookup) or as a batch
// element (MsgLookupBatch).
type lookupReq struct {
	Module    string
	Kind      uint8
	End       uint64 // block terminator (or edge source for kindEdge)
	Sig       uint64 // run-time CHG signature (unused for kindEdge)
	WantFlags uint8
	Target    uint64 // Want.Target, or edge destination for kindEdge
	Pred      uint64 // Want.Pred
}

func (m lookupReq) append(e *enc) {
	e.str(m.Module)
	e.u8(m.Kind)
	e.u64(m.End)
	e.u64(m.Sig)
	e.u8(m.WantFlags)
	e.u64(m.Target)
	e.u64(m.Pred)
}

func decodeLookupReq(d *dec) lookupReq {
	return lookupReq{
		Module:    d.str("module"),
		Kind:      d.u8("kind"),
		End:       d.u64("end"),
		Sig:       d.u64("sig"),
		WantFlags: d.u8("wantFlags"),
		Target:    d.u64("target"),
		Pred:      d.u64("pred"),
	}
}

// Lookup verdicts (lookupRes.Verdict).
const (
	// verdictFound: the entry/edge exists and is legal.
	verdictFound = 0
	// verdictMiss: the table definitively does not contain it — the
	// sigtable.ErrMiss outcome, a real validation verdict.
	verdictMiss = 1
)

// lookupRes is one lookup result. Touched is always present (misses walk
// RAM too, and the timing model charges those reads identically on the
// local and remote paths). The entry is present only for found
// block lookups, flagged by HasEntry.
type lookupRes struct {
	Verdict  uint8
	Touched  []uint64
	HasEntry uint8
	Entry    sigtable.Entry
}

func (m lookupRes) append(e *enc) {
	e.u8(m.Verdict)
	e.addrs(m.Touched)
	e.u8(m.HasEntry)
	if m.HasEntry != 0 {
		e.u64(m.Entry.End)
		e.u64(uint64(m.Entry.Hash))
		e.u8(uint8(m.Entry.Term))
		e.addrs(m.Entry.Targets)
		e.addrs(m.Entry.RetPreds)
	}
}

func decodeLookupRes(d *dec) lookupRes {
	m := lookupRes{
		Verdict:  d.u8("verdict"),
		Touched:  d.addrs("touched"),
		HasEntry: d.u8("hasEntry"),
	}
	if m.HasEntry != 0 {
		m.Entry.End = d.u64("entry.end")
		m.Entry.Hash = chash.Sig(d.u64("entry.hash"))
		m.Entry.Term = isa.Kind(d.u8("entry.term"))
		m.Entry.Targets = d.addrs("entry.targets")
		m.Entry.RetPreds = d.addrs("entry.retPreds")
	}
	return m
}

// lookupBatch is MsgLookupBatch's payload.
type lookupBatch struct{ Reqs []lookupReq }

func (m lookupBatch) encode() []byte {
	var e enc
	e.u16(uint16(len(m.Reqs)))
	for _, r := range m.Reqs {
		r.append(&e)
	}
	return e.b
}

func decodeLookupBatch(b []byte) (lookupBatch, error) {
	d := dec{b: b}
	n := int(d.u16("count"))
	if n > maxListLen {
		d.bad("count")
		n = 0
	}
	var m lookupBatch
	for i := 0; i < n && d.fail == nil; i++ {
		m.Reqs = append(m.Reqs, decodeLookupReq(&d))
	}
	return m, d.done()
}

// lookupBatchRes is MsgLookupBatchResult's payload.
type lookupBatchRes struct{ Res []lookupRes }

func (m lookupBatchRes) encode() []byte {
	var e enc
	e.u16(uint16(len(m.Res)))
	for _, r := range m.Res {
		r.append(&e)
	}
	return e.b
}

func decodeLookupBatchRes(b []byte) (lookupBatchRes, error) {
	d := dec{b: b}
	n := int(d.u16("count"))
	if n > maxListLen {
		d.bad("count")
		n = 0
	}
	var m lookupBatchRes
	for i := 0; i < n && d.fail == nil; i++ {
		m.Res = append(m.Res, decodeLookupRes(&d))
	}
	return m, d.done()
}

// evidencePutMsg is MsgEvidencePut's payload: a name (the client's run
// identifier, unique per upload) and the raw evidence stream bytes.
type evidencePutMsg struct {
	Name   string
	Stream []byte
}

func (m evidencePutMsg) encode() []byte {
	var e enc
	e.str(m.Name)
	e.u32(uint32(len(m.Stream)))
	e.b = append(e.b, m.Stream...)
	return e.b
}

func decodeEvidencePut(b []byte) (evidencePutMsg, error) {
	d := dec{b: b}
	m := evidencePutMsg{Name: d.str("name")}
	n := int(d.u32("streamLen"))
	if n > MaxPayload {
		d.bad("streamLen")
		n = 0
	}
	m.Stream = append([]byte(nil), d.take(n, "stream")...)
	return m, d.done()
}

// evidenceAckMsg is MsgEvidenceAck's payload.
type evidenceAckMsg struct {
	// Bytes is the retained stream length.
	Bytes uint64
	// Evicted is how many older streams were dropped to make room.
	Evicted uint32
}

func (m evidenceAckMsg) encode() []byte {
	var e enc
	e.u64(m.Bytes)
	e.u32(m.Evicted)
	return e.b
}

func decodeEvidenceAck(b []byte) (evidenceAckMsg, error) {
	d := dec{b: b}
	m := evidenceAckMsg{Bytes: d.u64("bytes"), Evicted: d.u32("evicted")}
	return m, d.done()
}

// evidenceInfo is one catalogue line in MsgEvidenceCatalog.
type evidenceInfo struct {
	Name  string
	Bytes uint64
}

// evidenceCatalogMsg is MsgEvidenceCatalog's payload, oldest first.
type evidenceCatalogMsg struct{ Streams []evidenceInfo }

func (m evidenceCatalogMsg) encode() []byte {
	var e enc
	e.u16(uint16(len(m.Streams)))
	for _, s := range m.Streams {
		e.str(s.Name)
		e.u64(s.Bytes)
	}
	return e.b
}

func decodeEvidenceCatalog(b []byte) (evidenceCatalogMsg, error) {
	d := dec{b: b}
	n := int(d.u16("count"))
	if n > maxListLen {
		d.bad("count")
		n = 0
	}
	var m evidenceCatalogMsg
	for i := 0; i < n && d.fail == nil; i++ {
		m.Streams = append(m.Streams, evidenceInfo{Name: d.str("name"), Bytes: d.u64("bytes")})
	}
	return m, d.done()
}

// evidenceGetMsg is MsgEvidenceGet's payload.
type evidenceGetMsg struct{ Name string }

func (m evidenceGetMsg) encode() []byte {
	var e enc
	e.str(m.Name)
	return e.b
}

func decodeEvidenceGet(b []byte) (evidenceGetMsg, error) {
	d := dec{b: b}
	m := evidenceGetMsg{Name: d.str("name")}
	return m, d.done()
}

// evidenceDataMsg is MsgEvidenceData's payload.
type evidenceDataMsg struct{ Stream []byte }

func (m evidenceDataMsg) encode() []byte {
	var e enc
	e.u32(uint32(len(m.Stream)))
	e.b = append(e.b, m.Stream...)
	return e.b
}

func decodeEvidenceData(b []byte) (evidenceDataMsg, error) {
	d := dec{b: b}
	n := int(d.u32("streamLen"))
	if n > MaxPayload {
		d.bad("streamLen")
		n = 0
	}
	m := evidenceDataMsg{Stream: append([]byte(nil), d.take(n, "stream")...)}
	return m, d.done()
}

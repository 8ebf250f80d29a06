package evidence

import (
	"fmt"
	"io"
	"time"

	"rev/internal/chash"
	"rev/internal/isa"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
)

// Defaults for Config zero values.
const (
	// DefaultWindow is the committed-block tuples aggregated per segment
	// record when Config.Window is zero.
	DefaultWindow = 64
	// DefaultRing is the emitter ring capacity when Config.Ring is zero.
	DefaultRing = 1024
)

// Config parameterizes an Emitter.
type Config struct {
	// Tenant namespaces the stream; written into the genesis record and
	// checked by verifiers ("" becomes "default", matching sigserve).
	Tenant string
	// Binding is a free-form run-binding string written into the genesis
	// record — conventionally the revsim workload parameters, so
	// revattest can rebuild the matching signature tables (see
	// cmd/revattest's accepted form).
	Binding string
	// Window is the maximum committed-block tuples per segment record
	// (0 = DefaultWindow). Smaller windows checkpoint the path hash more
	// often; the stream bytes change but the attested content does not.
	Window int
	// Ring is the hand-off ring capacity between the commit hot path and
	// the background encoder (0 = DefaultRing; rounded up to a power of
	// two). The ring never drops: a full ring back-pressures the commit
	// path, so the stream is byte-identical at any capacity.
	Ring int
	// Telemetry, when enabled, counts emitter activity in the metrics
	// registry (docs/OBSERVABILITY.md "Evidence"). Never alters the
	// stream bytes.
	Telemetry *telemetry.Set
}

// Stats is a post-run snapshot of emitter activity. Read it after
// Finish returns; counters are not synchronized during the run.
type Stats struct {
	// Blocks counts committed-block tuples absorbed into the stream.
	Blocks uint64
	// Records counts records written, including genesis and final.
	Records uint64
	// Segments and Fences count those record types.
	Segments uint64
	Fences   uint64
	// Bytes counts stream bytes written.
	Bytes uint64
	// RingStalls counts hot-path waits for encoder back-pressure.
	RingStalls uint64
	// EncodeSeconds is the background encoder's busy time — hashing,
	// framing, and writing records. On a single core it time-slices
	// with the run, so wall-clock overhead minus EncodeSeconds
	// approximates the commit hot path's own cost (the evidence term
	// revbench -teljson gates at GOMAXPROCS 1). On more cores the
	// encoder runs beside the run, but the wall overhead measured there
	// is not zero (docs/EVIDENCE.md "Emitter architecture").
	EncodeSeconds float64
}

// Emitter produces one evidence stream for one validation run. The
// commit hot path (Commit, Fence — called by the engine on the
// validation goroutine) publishes fixed-size tuples into a bounded SPSC
// ring and never allocates or hashes; a background encoder goroutine
// drains the ring, aggregates segments, computes the chain, and writes
// to the underlying writer — mirroring the telemetry recorder's
// hot/cold split. An Emitter is single-use: Begin once, Finish once.
//
// Ownership: exactly one goroutine may call Commit/Fence (the engine's
// validation goroutine — the run loop when serial, the retire consumer
// when pipelined); Begin and Finish are called by the run driver before
// and after that goroutine is active.
type Emitter struct {
	w   io.Writer
	cfg Config

	ring  *chash.SPSC
	slots []tuple
	stop  chash.StopFlag
	done  chan struct{}

	// Encoder-side state (chain/path/encoding buffers). Begin and Finish
	// also touch it, strictly before the encoder starts and after it
	// joins respectively.
	chain    chainState
	path     pathState
	seq      uint32
	segBuf   []byte // encoded tuples of the open segment
	segCount int
	out      []byte // buffered framed records not yet written to w
	werr     error  // first writer error

	stats       Stats
	stalls      uint64 // producer-side, folded into stats at Finish
	encodeNanos int64  // encoder busy time (segment/record work), folded at Finish

	began    bool
	finished bool

	// Pre-resolved metric handles (nil-safe no-ops when telemetry off).
	mBlocks, mRecords, mSegments *telemetry.Counter
	mFences, mBytes, mStalls     *telemetry.Counter
}

// NewEmitter creates an emitter that writes the evidence stream to w.
// Nothing is written until Begin.
func NewEmitter(w io.Writer, cfg Config) *Emitter {
	if cfg.Tenant == "" {
		cfg.Tenant = "default"
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Ring <= 0 {
		cfg.Ring = DefaultRing
	}
	e := &Emitter{w: w, cfg: cfg}
	reg := cfg.Telemetry.Registry()
	e.mBlocks = reg.Counter("evidence_blocks_total", "committed-block tuples absorbed into evidence streams")
	e.mRecords = reg.Counter("evidence_records_total", "evidence records written (all types)")
	e.mSegments = reg.Counter("evidence_segments_total", "evidence segment records written")
	e.mFences = reg.Counter("evidence_fences_total", "evidence fence records written")
	e.mBytes = reg.Counter("evidence_bytes_total", "evidence stream bytes written")
	e.mStalls = reg.Counter("evidence_ring_stalls_total", "commit-path waits for evidence encoder back-pressure")
	return e
}

// Begin writes the genesis record binding the stream to the run's
// validation format and module map, then starts the background encoder.
// It must be called exactly once, before the run executes.
func (e *Emitter) Begin(format sigtable.Format, mods []ModuleRange) error {
	if e.began {
		return fmt.Errorf("evidence: emitter already began a stream (emitters are single-use)")
	}
	if e.w == nil {
		return fmt.Errorf("evidence: emitter has no writer")
	}
	e.began = true
	g := Genesis{
		StreamVersion: StreamVersion,
		Format:        format,
		Window:        e.cfg.Window,
		Tenant:        e.cfg.Tenant,
		Binding:       e.cfg.Binding,
		Modules:       mods,
	}
	e.busy(func() {
		e.writeRecord(recGenesis, encodeGenesis(g))
		e.flush()
	})
	if e.werr != nil {
		return e.werr
	}
	e.ring = chash.NewSPSC(e.cfg.Ring)
	e.slots = make([]tuple, e.ring.Cap())
	e.segBuf = make([]byte, 0, e.cfg.Window*tupleSize)
	e.done = make(chan struct{})
	go e.encode()
	return nil
}

// Commit publishes one validated basic-block commit: the block's end
// address, its successor, the terminator kind, and the block signature
// (0 in CFI-only format, which hashes nothing). Hot path: one ring slot
// write, no allocation, no hashing; blocks only when the encoder is an
// entire ring behind.
func (e *Emitter) Commit(end, next uint64, term isa.Kind, sig chash.Sig) {
	e.publish(tuple{end: end, next: next, term: term, sig: sig})
	e.mBlocks.Inc()
}

// Fence publishes a validation-state fence (REV disable/enable, context
// switch). Fences ride the same ring as commits so the stream preserves
// their program order relative to committed blocks.
func (e *Emitter) Fence(kind FenceKind, arg uint64) {
	e.publish(tuple{kind: uint8(kind), arg: arg})
}

func (e *Emitter) publish(t tuple) {
	var b chash.Backoff
	for {
		seq, ok := e.ring.TryAcquire()
		if ok {
			e.slots[e.ring.SlotOf(seq)] = t
			e.ring.Publish()
			return
		}
		e.stalls++
		e.mStalls.Inc()
		b.Wait()
	}
}

// Finish drains the encoder, seals the stream with the final record
// (verdict, block count, final path hash), flushes, and returns the
// first writer error, if any. Must be called after the run's validation
// goroutine has stopped committing.
func (e *Emitter) Finish(o Outcome) error {
	if !e.began {
		return fmt.Errorf("evidence: Finish before Begin")
	}
	if e.finished {
		return fmt.Errorf("evidence: stream already finished")
	}
	e.finished = true
	e.stop.Raise()
	<-e.done
	e.busy(func() {
		e.flushSegment()
		e.writeRecord(recFinal, encodeFinal(nil, o, e.stats.Blocks, e.path.cur))
		e.flush()
	})
	e.stats.RingStalls = e.stalls
	e.stats.EncodeSeconds = float64(e.encodeNanos) / 1e9
	return e.werr
}

// Stats returns the emitter's activity snapshot. Call after Finish.
func (e *Emitter) Stats() Stats { return e.stats }

// encode is the background encoder: it drains the ring in publish
// order, aggregating commits into segments and flushing a segment
// record at every Window tuples and at every fence.
func (e *Emitter) encode() {
	defer close(e.done)
	var b chash.Backoff
	for {
		seq, ok := e.ring.TryPeek()
		if !ok {
			if e.stop.Raised() && e.ring.Drained() {
				return
			}
			b.Wait()
			continue
		}
		b.Reset()
		// Drain everything already published as one timed batch: the
		// clock reads amortize across the batch and idle waits stay out
		// of the busy time.
		start := time.Now()
		for ok {
			t := e.slots[e.ring.SlotOf(seq)]
			e.ring.Release()
			if t.kind == 0 {
				e.segBuf = appendTuple(e.segBuf, t)
				e.segCount++
				e.stats.Blocks++
				if e.segCount >= e.cfg.Window {
					e.flushSegment()
				}
			} else {
				// A fence closes the open segment first, so tuple order
				// across the fence is preserved in the stream.
				e.flushSegment()
				e.writeRecord(recFence, encodeFence(nil, FenceKind(t.kind), t.arg))
				e.stats.Fences++
				e.mFences.Inc()
			}
			seq, ok = e.ring.TryPeek()
		}
		e.encodeNanos += int64(time.Since(start))
	}
}

// busy runs one batch of encoder-side work (hashing, framing, writing)
// and accumulates its wall time into Stats.EncodeSeconds. Timed per
// record batch, not per tuple, so the clock reads are amortized.
func (e *Emitter) busy(f func()) {
	start := time.Now()
	f()
	e.encodeNanos += int64(time.Since(start))
}

// flushSegment seals the open segment (if any) into a segment record,
// advancing the path accumulator.
func (e *Emitter) flushSegment() {
	if e.segCount == 0 {
		return
	}
	path := e.path.absorb(e.segBuf)
	payload := encodeSegment(nil, e.segBuf, e.segCount, path)
	e.writeRecord(recSegment, payload)
	e.stats.Segments++
	e.mSegments.Inc()
	e.segBuf = e.segBuf[:0]
	e.segCount = 0
}

// writeRecord chains and frames one record into the output buffer,
// flushing to the writer when the buffer grows large.
func (e *Emitter) writeRecord(typ uint8, payload []byte) {
	chain := e.chain.next(typ, e.seq, payload)
	e.out = appendRecord(e.out, typ, e.seq, payload, chain)
	e.seq++
	e.stats.Records++
	e.mRecords.Inc()
	if len(e.out) >= 32<<10 {
		e.flush()
	}
}

// flush writes the buffered records to the underlying writer, retaining
// the first error. After an error the emitter keeps draining the ring
// (so the hot path never deadlocks) but stops writing.
func (e *Emitter) flush() {
	if len(e.out) == 0 {
		return
	}
	if e.werr == nil {
		n, err := e.w.Write(e.out)
		e.stats.Bytes += uint64(n)
		e.mBytes.Add(uint64(n))
		if err != nil {
			e.werr = fmt.Errorf("evidence: writing stream: %w", err)
		}
	}
	e.out = e.out[:0]
}

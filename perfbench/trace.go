package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the enclosing span's id (0 for
// a root) and Track the goroutine lane it ran on.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Track  int    `json:"track"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Methods are safe for
// concurrent use and no-ops on a nil tracer, so untraced rounds pass nil.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, track int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Track: track, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, track int, fn func() error) error {
	id := t.begin(name, parent, track)
	err := fn()
	t.end(id)
	return err
}

// spanStat summarises every span of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	MedianS float64 `json:"median_s"`
	MaxS    float64 `json:"max_s"`
}

// stats aggregates spans by name. A span's self time is its duration
// minus the time its child spans cover.
func (t *tracer) stats() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += float64(s.End-s.Start) / 1e9
		}
	}
	durs := map[string][]float64{}
	out := map[string]*spanStat{}
	for _, s := range t.spans {
		d := float64(s.End-s.Start) / 1e9
		st := out[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			out[s.Name] = st
		}
		st.Count++
		st.TotalS += d
		st.SelfS += max(0, d-child[s.ID])
		st.MaxS = max(st.MaxS, d)
		durs[s.Name] = append(durs[s.Name], d)
	}
	for name, ds := range durs {
		out[name].MedianS = median(ds)
	}
	return out
}

// total returns the summed duration of every span called name.
func (t *tracer) total(name string) float64 {
	if st, ok := t.stats()[name]; ok {
		return st.TotalS
	}
	return 0
}

// cpuLayers are the packages whose CPU self time the traced run reports;
// everything else folds into "other".
var cpuLayers = []string{
	"cpu", "mem", "branch", "core", "sigcache", "chash", "crypt", "sigtable",
	"cfg", "workload", "evidence", "sigserve", "prefetch", "runtime", "other",
}

// cpuProfile accumulates CPU self time by layer over the traced rounds,
// each profiled separately.
type cpuProfile struct {
	buf    bytes.Buffer
	byPkg  map[string]float64 // seconds
	byFunc map[string]float64 // seconds
	n      int
}

func (p *cpuProfile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	p.n++
	return p.add(p.buf.Bytes())
}

// add folds one gzipped pprof profile into the sums by leaf function.
func (p *cpuProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	leaf, err := leafTimes(raw)
	if err != nil {
		return err
	}
	for fn, ns := range leaf {
		p.byFunc[fn] += ns / 1e9
		p.byPkg[layerOf(fn)] += ns / 1e9
	}
	return nil
}

// layerOf maps a function symbol to its layer name: the last element of
// a rev/internal package path, "runtime" for the Go runtime, or "other".
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case strings.HasPrefix(pkg, "rev/internal/"):
		l := strings.TrimPrefix(pkg, "rev/internal/")
		for _, k := range cpuLayers {
			if k == l {
				return l
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// pkgOf returns the import path of a Go function symbol such as
// "rev/internal/cpu.(*Pipeline).Next".
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

// leafTimes decodes an uncompressed pprof protobuf and returns CPU
// nanoseconds by leaf function (the innermost inlined frame of each
// sample's first location). Only the fields this needs are decoded.
func leafTimes(raw []byte) (map[string]float64, error) {
	type loc struct{ fn uint64 }
	var (
		strs    []string
		funcs   = map[uint64]int64{} // id -> name string index
		locs    = map[uint64]loc{}
		samples [][2][]uint64 // location ids, values
		types   []int64       // sample type string indexes
	)
	err := pbFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s [2][]uint64
			err := pbFields(b, func(f int, v uint64, pb []byte) error {
				if f == 1 || f == 2 {
					vals, err := pbUints(v, pb)
					if err != nil {
						return err
					}
					s[f-1] = append(s[f-1], vals...)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var l loc
			first := true
			err := pbFields(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first one is the innermost inlined frame
					if first {
						first = false
						return pbFields(lb, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								l.fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locs[id] = l
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	vi := -1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("decoding CPU profile: no cpu sample type")
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s[0]) == 0 || vi >= len(s[1]) {
			continue
		}
		name := "?"
		if l, ok := locs[s[0][0]]; ok {
			if si, ok := funcs[l.fn]; ok && si >= 0 && int(si) < len(strs) {
				name = strs[si]
			}
		}
		out[name] += float64(s[1][vi])
	}
	return out, nil
}

// pbFields walks the top-level fields of a protobuf message, passing the
// varint value (wire type 0) or the bytes (wire type 2) of each.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("truncated key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbUints returns a repeated integer field's values, packed or not.
func pbUints(v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n == 0 {
			return nil, errors.New("truncated packed varint")
		}
		out = append(out, x)
		packed = packed[n:]
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// writeTrace writes the traced run's files under o.out: layers.json (the
// per-layer metrics, span summary, CPU time by package and top functions,
// and the program's counters) and trace.json (the spans in Chrome
// trace_event format, loadable in Perfetto or chrome://tracing).
func (r *run) writeTrace(name string, counters map[string]any) error {
	dir := filepath.Join(r.o.out, fmt.Sprintf("%s-seed%d", name, r.o.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stats := r.tr.stats()
	spanList := make([]*spanStat, 0, len(stats))
	for _, s := range stats {
		spanList = append(spanList, s)
	}
	sort.Slice(spanList, func(i, j int) bool { return spanList[i].Name < spanList[j].Name })
	type fnTime struct {
		Func  string  `json:"func"`
		SelfS float64 `json:"self_s"`
	}
	var top []fnTime
	for fn, s := range r.pf.byFunc {
		top = append(top, fnTime{fn, s})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].SelfS > top[j].SelfS })
	if len(top) > 40 {
		top = top[:40]
	}
	doc := map[string]any{
		"workload":        name,
		"seed":            r.o.seed,
		"traced_ops":      r.tracedOps,
		"traced_rounds":   len(r.tracedRound),
		"untraced_rounds": len(r.untracedRound),
		"metrics":         r.layers,
		"spans":           spanList,
		"cpu_profiles":    r.pf.n,
		"cpu_by_layer_s":  r.pf.byPkg,
		"cpu_top_funcs":   top,
		"counters":        counters,
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), doc); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.tr.mu.Lock()
	events := make([]event, 0, len(r.tr.spans))
	for _, s := range r.tr.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Track, Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	r.tr.mu.Unlock()
	if err := writeJSON(filepath.Join(dir, "trace.json"), map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced output in %s\n", dir)
	return nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

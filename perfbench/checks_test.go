package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"rev/internal/core"
	"rev/internal/evidence"
	"rev/internal/experiments"
	"rev/internal/sigtable"
	"rev/internal/stats"
)

// smallProgram is a quick program for tests that need real results.
func smallProgram(t *testing.T) (*program, *core.Prepared, *core.Result) {
	t.Helper()
	p, err := seededProgram(shape{name: "bzip2", scale: 0.01, instrs: 20_000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(p.profile.Builder(), p.rc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.RunInstance(core.InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkClean("bzip2", res); err != nil {
		t.Fatal(err)
	}
	return p, prep, res
}

// clone copies a result deeply enough for doctoring.
func clone(r *core.Result) *core.Result {
	c := *r
	c.Output = append([]uint64(nil), r.Output...)
	return &c
}

func isCheck(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

// variants returns a benchmark's simulations in figVariants order, all
// made consistent with the base run.
func variants(t *testing.T) []*core.Result {
	t.Helper()
	_, _, res := smallProgram(t)
	var rs []*core.Result
	for range figVariants {
		rs = append(rs, clone(res))
	}
	return rs
}

func TestCheckVariantsAcceptsConsistentRuns(t *testing.T) {
	if err := checkVariants("bzip2", variants(t)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckVariantsRejectsChangedOutput(t *testing.T) {
	rs := variants(t)
	rs[2].Output[len(rs[2].Output)-1] ^= 1
	if err := checkVariants("bzip2", rs); !isCheck(err) || !strings.Contains(err.Error(), "output") {
		t.Fatalf("changed program output passed: %v", err)
	}
}

func TestCheckVariantsRejectsSCCountOffByOne(t *testing.T) {
	for _, doctor := range []func(r *core.Result){
		func(r *core.Result) { r.SC.Hits++ },
		func(r *core.Result) { r.SC.PartialMisses-- },
		func(r *core.Result) { r.SC.Probes++ },
	} {
		rs := variants(t)
		doctor(rs[1])
		if err := checkVariants("bzip2", rs); !isCheck(err) || !strings.Contains(err.Error(), "SC probes") {
			t.Fatalf("SC count off by one passed: %v", err)
		}
	}
}

func TestCheckVariantsRejectsFewerCyclesAndOtherInstructions(t *testing.T) {
	rs := variants(t)
	rs[3].Pipe.Cycles = rs[0].Pipe.Cycles - 1
	if err := checkVariants("bzip2", rs); !isCheck(err) {
		t.Fatal("REV run faster than the base core passed")
	}
	rs = variants(t)
	rs[4].Pipe.Instrs++
	if err := checkVariants("bzip2", rs); !isCheck(err) {
		t.Fatal("different committed instruction count passed")
	}
}

func TestCheckTableSizesOrder(t *testing.T) {
	if err := checkTableSizes("x", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][3]uint64{{2, 2, 3}, {1, 3, 3}, {3, 2, 1}} {
		if err := checkTableSizes("x", c[0], c[1], c[2]); !isCheck(err) {
			t.Fatalf("sizes %v passed", c)
		}
	}
}

// table1 renders a Table 1 with every attack detected for its reason.
func table1() *stats.Table {
	t := &stats.Table{}
	for _, row := range []struct{ name, reason string }{
		{"Direct Code Injection", "hash-mismatch"},
		{"Indirect Code Injection", "unknown-module"},
		{"Return Oriented Attack", "illegal-return"},
		{"Jump Oriented Attack", "illegal-computed-target"},
		{"Vtable compromises", "illegal-computed-target"},
		{"Return to lib-C attacks", "illegal-return"},
	} {
		t.AddRow(row.name, "true", "true", row.reason)
	}
	return t
}

func TestCheckTable1(t *testing.T) {
	if err := checkTable1(table1()); err != nil {
		t.Fatal(err)
	}
	undetected := table1()
	undetected.Rows[3][2] = "false"
	if err := checkTable1(undetected); !isCheck(err) || !strings.Contains(err.Error(), "not detected") {
		t.Fatalf("undetected attack passed: %v", err)
	}
	harmless := table1()
	harmless.Rows[0][1] = "false"
	if err := checkTable1(harmless); !isCheck(err) {
		t.Fatal("attack that changed nothing passed")
	}
	wrongReason := table1()
	wrongReason.Rows[2][3] = "hash-mismatch" // ROP must fail the return check
	if err := checkTable1(wrongReason); !isCheck(err) {
		t.Fatal("ROP flagged for a hash mismatch passed")
	}
	missing := table1()
	missing.Rows = missing.Rows[:5]
	if err := checkTable1(missing); !isCheck(err) {
		t.Fatal("table with a missing attack passed")
	}
}

// The real Table 1 passes at the figures workload's instruction budget.
func TestCheckTable1OnProgramOutput(t *testing.T) {
	tbl, err := experiments.Table1(figuresConfig.MaxInstrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTable1(tbl); err != nil {
		t.Fatal(err)
	}
}

func TestDiffResultNamesEachField(t *testing.T) {
	_, _, res := smallProgram(t)
	if d := diffResult(res, clone(res)); d != "" {
		t.Fatalf("identical results differ in %s", d)
	}
	for field, doctor := range map[string]func(r *core.Result){
		"Output":      func(r *core.Result) { r.Output[len(r.Output)-1]++ },
		"Pipe":        func(r *core.Result) { r.Pipe.Cycles++ },
		"SC":          func(r *core.Result) { r.SC.CompleteMisses++ },
		"Engine":      func(r *core.Result) { r.Engine.MemoMisses++ },
		"Violation":   func(r *core.Result) { r.Violation = &core.Violation{} },
		"SourceNotes": func(r *core.Result) { r.SourceNotes = []sigtable.SourceNote{{Module: "m"}} },
	} {
		c := clone(res)
		doctor(c)
		if d := diffResult(c, res); d != field {
			t.Errorf("doctored %s reported as %q", field, d)
		}
		if err := checkInstance("p", c, res); !isCheck(err) {
			t.Errorf("instance with a doctored %s passed", field)
		}
	}
}

func TestCheckRemoteRejectsDifferingResult(t *testing.T) {
	_, _, local := smallProgram(t)
	if err := checkRemote(clone(local), local); err != nil {
		t.Fatal(err)
	}
	// A remote table entry that differs from the local one shows up as a
	// different verdict or a different miss walk.
	flagged := clone(local)
	flagged.Violation = &core.Violation{Reason: core.ViolationTarget}
	if err := checkRemote(flagged, local); !isCheck(err) {
		t.Fatal("remote verdict differing from the local one passed")
	}
	walk := clone(local)
	walk.Engine.RecordsTouched++
	if err := checkRemote(walk, local); !isCheck(err) {
		t.Fatal("remote lookup touching a different record count passed")
	}
	degraded := clone(local)
	degraded.SourceNotes = []sigtable.SourceNote{{Module: "m", Degraded: true}}
	if err := checkRemote(degraded, local); !isCheck(err) {
		t.Fatal("degraded remote lookups passed")
	}
}

func TestCheckCanary(t *testing.T) {
	flagged := &core.Result{Violation: &core.Violation{Reason: core.ViolationHash, BBStart: 0x100, BBEnd: 0x140}}
	if err := checkCanary("p", flagged, 0x120); err != nil {
		t.Fatal(err)
	}
	if err := checkCanary("p", &core.Result{}, 0x120); !isCheck(err) {
		t.Fatal("unflagged canary passed")
	}
	if err := checkCanary("p", flagged, 0x200); !isCheck(err) {
		t.Fatal("canary flagged in another block passed")
	}
	other := &core.Result{Violation: &core.Violation{Reason: core.ViolationTarget, BBStart: 0x100, BBEnd: 0x140}}
	if err := checkCanary("p", other, 0x120); !isCheck(err) {
		t.Fatal("canary flagged for another reason passed")
	}
}

// The canary hook really changes a code byte, and the validator flags it.
func TestCanaryFlaggedByValidator(t *testing.T) {
	p, err := seededProgram(shape{name: "bzip2", scale: 0.01, instrs: 3 * canaryAt}, 1)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(p.profile.Builder(), p.rc)
	if err != nil {
		t.Fatal(err)
	}
	var shared tableProvider
	for _, st := range prep.Tables {
		shared = append(shared, table{module: st.Module, meta: st.Table, snap: st.Snap})
	}
	var pc uint64
	rc := p.rc
	rc.AttackHook = canaryHook(&pc)
	canary, err := core.PrepareRemote(p.profile.Builder(), rc, shared)
	if err != nil {
		t.Fatal(err)
	}
	res, err := canary.RunInstance(core.InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pc == 0 {
		t.Fatal("canary hook never fired")
	}
	if err := checkCanary("bzip2", res, pc); err != nil {
		t.Fatal(err)
	}
}

// records splits an evidence stream into its framed records.
func records(t *testing.T, s []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(s) > 0 {
		n := 4 + int(binary.LittleEndian.Uint32(s))
		if n > len(s) {
			t.Fatal("bad framing")
		}
		out = append(out, s[:n])
		s = s[n:]
	}
	return out
}

func TestCheckEvidenceRejectsDroppedRecord(t *testing.T) {
	p, prep, ref := smallProgram(t)
	tables, err := buildTables(p.profile.Builder(), p.rc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	em := evidence.NewEmitter(&stream, evidence.Config{Binding: "perfbench", Window: 64})
	res, err := prep.RunInstance(core.InstanceOptions{Evidence: em})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkInstance("bzip2", res, ref); err != nil {
		t.Fatal(err)
	}
	vc := evidence.VerifyConfig{Sources: sources(tables)}
	rep, verr := evidence.Verify(stream.Bytes(), vc)
	if err := checkEvidence("bzip2", rep, verr, res); err != nil {
		t.Fatal(err)
	}

	recs := records(t, stream.Bytes())
	if len(recs) < 4 {
		t.Fatalf("stream has only %d records", len(recs))
	}
	dropped := bytes.Join(append(append([][]byte{}, recs[:2]...), recs[3:]...), nil)
	rep2, verr2 := evidence.Verify(dropped, vc)
	err = checkEvidence("bzip2", rep2, verr2, res)
	if !isCheck(err) || !errors.Is(verr2, evidence.ErrRecordDrop) {
		t.Fatalf("stream with a dropped record passed: %v", err)
	}

	short := *rep
	short.Blocks--
	if err := checkEvidence("bzip2", &short, nil, res); !isCheck(err) {
		t.Fatal("evidence covering one block fewer than the engine validated passed")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	want := [3]float64{2.75, 5.5, 8.25}
	for i := range q {
		if math.Abs(q[i]-want[i]) > 1e-12 {
			t.Fatalf("quartiles %v, want %v", q, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"rev/internal/cpu.(*Pipeline).Next":                              "cpu",
		"rev/internal/fleet.(*Runner[go.shape.int,go.shape.*uint8]).Run": "other",
		"rev/internal/chash.cubeRound":                                   "chash",
		"runtime.mallocgc":                                               "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                         "runtime",
		"syscall.Syscall":                                                "other",
		"main.runServe":                                                  "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUProfileDecodes(t *testing.T) {
	p := &cpuProfile{byPkg: map[string]float64{}, byFunc: map[string]float64{}}
	if err := p.start(); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	sink = x
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range p.byPkg {
		total += s
	}
	if total < 0.1 {
		t.Fatalf("decoded %.3fs of CPU from a 0.3s busy loop", total)
	}
}

var sink uint64

// BENCHMARK.json at the repository root names exactly the metrics a run
// prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics)
	same("per_layer", doc.PerLayer, perLayerMetrics)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}

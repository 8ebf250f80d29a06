package core

import (
	"runtime"
	"strings"
	"testing"

	"rev/internal/sigtable"
	"rev/internal/telemetry"
	"rev/internal/workload"
)

// telSet builds a fresh metrics+trace sink pair for one test.
func telSet(perTrackEvents int) *telemetry.Set {
	return &telemetry.Set{
		Reg:   telemetry.NewRegistry(),
		Trace: telemetry.NewRecorder(perTrackEvents),
	}
}

// TestTelemetryByteIdentity is the acceptance-gate invariant: attaching
// telemetry sinks must not perturb the simulation by one cycle or one
// output word — serial or pipelined, metrics only or metrics+trace.
func TestTelemetryByteIdentity(t *testing.T) {
	rc := DefaultRunConfig()
	rc.REV = revConfig(sigtable.Normal, 32)
	prep, err := Prepare(builderOf(loopProgram), rc)
	if err != nil {
		t.Fatal(err)
	}
	base, err := prep.RunInstance(InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Violation != nil {
		t.Fatalf("clean run flagged: %v", base.Violation)
	}
	configs := []struct {
		tag string
		set *telemetry.Set
	}{
		{"metrics", &telemetry.Set{Reg: telemetry.NewRegistry()}},
		{"trace", &telemetry.Set{Trace: telemetry.NewRecorder(1 << 12)}},
		{"metrics+trace", telSet(1 << 12)},
	}
	for _, c := range configs {
		got, err := prep.RunInstance(InstanceOptions{Telemetry: c.set})
		if err != nil {
			t.Fatalf("%s: %v", c.tag, err)
		}
		mustMatch(t, "serial/"+c.tag, base, got)
	}
	// Pipelined instances with telemetry must match the serial baseline
	// through the same identity contract as untraced pipelined runs.
	for _, lanes := range []int{1, 4} {
		set := telSet(1 << 12)
		got, err := prep.RunInstance(InstanceOptions{Lanes: lanes, Telemetry: set})
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		mustMatch(t, "piped+telemetry/lanes="+itoa(lanes), base, got)
	}
}

// TestTelemetryLaneTracks runs a 4-lane pipelined instance with a shared
// recorder (the -race sharing test for per-lane tracks) and checks the
// acceptance shape: one trace track per hash lane carrying hash-block
// spans, a validate track carrying SC miss-service spans, a producer
// track carrying ring-depth counters — and registry counters that
// reconcile with the run's own Stats.
func TestTelemetryLaneTracks(t *testing.T) {
	wl, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.MaxInstrs = 60_000
	rc.REV = revConfig(sigtable.Normal, 32)
	prep, err := Prepare(wl.Builder(), rc)
	if err != nil {
		t.Fatal(err)
	}
	set := telSet(1 << 14)
	res, err := prep.RunInstance(InstanceOptions{Lanes: 4, Telemetry: set})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("clean run flagged: %v", res.Violation)
	}

	spansPerTrack := map[string]map[string]int{} // track -> span name -> count
	counters := map[string]int{}
	for _, e := range set.Trace.Events() {
		switch e.Kind {
		case "span":
			m := spansPerTrack[e.Track]
			if m == nil {
				m = map[string]int{}
				spansPerTrack[e.Track] = m
			}
			m[e.Name]++
		case "counter":
			counters[e.Track+"/"+e.Name]++
		}
	}
	var laneJobSpans int
	for i := 0; i < 4; i++ {
		track := laneTrackName(i)
		n := spansPerTrack[track]["hash-block"]
		if n == 0 {
			t.Errorf("lane track %s has no hash-block spans (tracks: %v)", track, trackNames(spansPerTrack))
		}
		laneJobSpans += n
	}
	missSpans := spansPerTrack["validate"]["sc-complete-miss"] + spansPerTrack["validate"]["sc-partial-miss"]
	if missSpans == 0 {
		t.Error("validate track has no SC miss-service spans")
	}
	if counters["producer/ring-depth"] == 0 {
		t.Error("producer track has no ring-depth counter samples")
	}

	snap := set.Reg.Snapshot()
	if got, want := snap.Counters["rev.engine.validated_blocks"], res.Engine.ValidatedBlocks; got != want {
		t.Errorf("registry validated_blocks = %d, run Stats say %d", got, want)
	}
	// Every memo outcome corresponds to one lane job; lanes may also see
	// jobs that neither hash nor hit (e.g. aborted after a violation), so
	// the job counter bounds the memo outcomes from above.
	if got, want := snap.Counters["rev.lane.jobs"], res.Engine.MemoHits+res.Engine.MemoMisses; got < want {
		t.Errorf("rev.lane.jobs = %d < %d memo outcomes", got, want)
	}
	cells := snap.Shards["rev.lane.jobs"]
	if len(cells) != 4 {
		t.Fatalf("rev.lane.jobs shards = %d, want 4", len(cells))
	}
	var cellSum uint64
	for _, v := range cells {
		cellSum += v
	}
	if cellSum != snap.Counters["rev.lane.jobs"] {
		t.Errorf("shard cells sum %d != merged counter %d", cellSum, snap.Counters["rev.lane.jobs"])
	}
	if uint64(laneJobSpans) > cellSum {
		t.Errorf("trace recorded %d hash-block spans but counters say %d jobs", laneJobSpans, cellSum)
	}
	if mr := snap.Histograms["rev.sc.miss_service_cycles"]; mr.Count == 0 {
		t.Error("miss-service-cycle histogram empty despite SC misses")
	}
}

// TestTelemetryEpochFenceEvents is the satellite edge case for tracing
// during an SMC epoch fence: the producer must record the fence as a
// span (events keep flowing while the ring drains), the fence counter
// must fire, and the traced run must stay byte-identical to the
// untraced serial baseline.
func TestTelemetryEpochFenceEvents(t *testing.T) {
	rc := DefaultRunConfig()
	rc.REV = revConfig(sigtable.Normal, 32)
	prep, err := Prepare(builderOf(smcWindowProgram(true)), rc)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := prep.RunInstance(InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Violation != nil {
		t.Fatalf("windowed serial run flagged: %v", serial.Violation)
	}
	set := telSet(1 << 12)
	piped, err := prep.RunInstance(InstanceOptions{Lanes: 2, Telemetry: set})
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "smc-fence+telemetry", serial, piped)

	snap := set.Reg.Snapshot()
	if snap.Counters["rev.pipeline.epoch_fences"] == 0 {
		t.Error("epoch fence counter did not fire on a code-version bump")
	}
	var fenceSpans int
	for _, e := range set.Trace.Events() {
		if e.Kind == "span" && e.Name == "epoch-fence" {
			if e.Track != "producer" {
				t.Errorf("epoch-fence span on track %q, want producer", e.Track)
			}
			if e.Dur < 0 {
				t.Errorf("epoch-fence span has negative duration: %+v", e)
			}
			fenceSpans++
		}
	}
	if fenceSpans == 0 {
		t.Error("no epoch-fence spans recorded during the drain")
	}
	if got := snap.Counters["rev.pipeline.epoch_fences"]; uint64(fenceSpans) != got {
		t.Errorf("fence spans (%d) disagree with fence counter (%d)", fenceSpans, got)
	}
}

// TestTelemetryAllocBudget extends the hot-path allocation gate to the
// instrumented configuration: with metrics AND tracing attached, a
// prepared run must still stay within the 0.5 allocs-per-validated-block
// budget — the zero-alloc-on-hot-path design rule, measured end to end.
func TestTelemetryAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget probe is a full run")
	}
	p, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.MaxInstrs = 300_000
	rc.REV = revConfig(sigtable.Normal, 32)
	prep, err := Prepare(p.Builder(), rc)
	if err != nil {
		t.Fatal(err)
	}
	set := telSet(1 << 12)
	if _, err := prep.RunInstance(InstanceOptions{Telemetry: set}); err != nil { // warm-up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := prep.RunInstance(InstanceOptions{Telemetry: set})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	blocks := res.Pipe.BBCount
	if blocks == 0 {
		t.Fatal("no blocks validated")
	}
	perBlock := float64(after.Mallocs-before.Mallocs) / float64(blocks)
	t.Logf("telemetry on: %d mallocs / %d blocks = %.3f per block",
		after.Mallocs-before.Mallocs, blocks, perBlock)
	if perBlock > 0.5 {
		t.Errorf("%.3f allocs per validated block with telemetry, budget is 0.5", perBlock)
	}
}

// trackNames summarizes which tracks carried spans (test diagnostics).
func trackNames(m map[string]map[string]int) string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	return strings.Join(names, ",")
}

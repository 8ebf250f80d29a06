package core

import (
	"reflect"
	"sync"
	"testing"

	"rev/internal/sigtable"
)

// TestSharedSnapshotConcurrentEngines is the fleet's core race test: one
// Prepare, then several engines validating concurrently against the same
// decrypted signature-table snapshot. Under -race this pins the
// share-one-table contract of docs/CONCURRENCY.md; functionally it pins
// that every tenant observes an identical, violation-free run.
func TestSharedSnapshotConcurrentEngines(t *testing.T) {
	for _, format := range []sigtable.Format{sigtable.Normal, sigtable.Aggressive, sigtable.CFIOnly} {
		rc := DefaultRunConfig()
		rc.MaxInstrs = 60_000
		rc.REV = revConfig(format, 8)
		prep, err := Prepare(builderOf(loopProgram), rc)
		if err != nil {
			t.Fatal(err)
		}

		const tenants = 4
		results := make([]*Result, tenants)
		errs := make([]error, tenants)
		var wg sync.WaitGroup
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = prep.RunInstance(InstanceOptions{})
			}(i)
		}
		wg.Wait()

		for i := 0; i < tenants; i++ {
			if errs[i] != nil {
				t.Fatalf("%v tenant %d: %v", format, i, errs[i])
			}
			r := results[i]
			if r.Violation != nil {
				t.Fatalf("%v tenant %d flagged clean run: %v", format, i, r.Violation)
			}
			if !r.Halted || r.Engine.ValidatedBlocks == 0 {
				t.Fatalf("%v tenant %d: halted=%v validated=%d",
					format, i, r.Halted, r.Engine.ValidatedBlocks)
			}
		}
		// Tenants are deterministic replicas: every counter must agree.
		for i := 1; i < tenants; i++ {
			if !reflect.DeepEqual(results[0].Output, results[i].Output) {
				t.Fatalf("%v tenant %d output diverged", format, i)
			}
			if results[0].Pipe != results[i].Pipe {
				t.Fatalf("%v tenant %d pipeline stats diverged:\n%+v\n%+v",
					format, i, results[0].Pipe, results[i].Pipe)
			}
			if results[0].Engine != results[i].Engine {
				t.Fatalf("%v tenant %d engine stats diverged:\n%+v\n%+v",
					format, i, results[0].Engine, results[i].Engine)
			}
			if results[0].SC != results[i].SC {
				t.Fatalf("%v tenant %d SC stats diverged:\n%+v\n%+v",
					format, i, results[0].SC, results[i].SC)
			}
		}
	}
}

// TestPreparedMatchesRun proves the snapshot path every run takes is
// observationally identical to validating against tables installed in
// simulated memory: core.Run and an instance of a Prepared (both over
// shared decrypted snapshots) must report the same output, cycles,
// stalls, SC behaviour and table geometry as a run whose engine decrypts
// records from its own RAM-installed tables (runInstalled).
func TestPreparedMatchesRun(t *testing.T) {
	for _, format := range []sigtable.Format{sigtable.Normal, sigtable.Aggressive, sigtable.CFIOnly} {
		rc := DefaultRunConfig()
		rc.MaxInstrs = 60_000
		rc.REV = revConfig(format, 8)

		installed, err := runInstalled(builderOf(loopProgram), rc)
		if err != nil {
			t.Fatal(err)
		}
		run, err := Run(builderOf(loopProgram), rc)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := Prepare(builderOf(loopProgram), rc)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := prep.RunInstance(InstanceOptions{})
		if err != nil {
			t.Fatal(err)
		}

		for _, got := range []struct {
			path string
			res  *Result
		}{{"core.Run", run}, {"RunInstance", shared}} {
			tag := format.String() + "/" + got.path
			if !reflect.DeepEqual(installed.Output, got.res.Output) {
				t.Fatalf("%s: output diverged", tag)
			}
			if installed.Violation != nil || got.res.Violation != nil {
				t.Fatalf("%s: violations: installed=%v snapshot=%v", tag, installed.Violation, got.res.Violation)
			}
			if installed.Pipe != got.res.Pipe {
				t.Fatalf("%s: pipeline stats diverged (timing parity broken):\ninstalled %+v\nsnapshot  %+v",
					tag, installed.Pipe, got.res.Pipe)
			}
			if installed.Engine != got.res.Engine {
				t.Fatalf("%s: engine stats diverged:\ninstalled %+v\nsnapshot  %+v",
					tag, installed.Engine, got.res.Engine)
			}
			if installed.SC != got.res.SC {
				t.Fatalf("%s: SC stats diverged:\ninstalled %+v\nsnapshot  %+v",
					tag, installed.SC, got.res.SC)
			}
			if len(installed.Tables) != len(got.res.Tables) {
				t.Fatalf("%s: table count diverged", tag)
			}
			for i := range installed.Tables {
				a, b := installed.Tables[i], got.res.Tables[i]
				if a.Base != b.Base || a.Buckets != b.Buckets || a.Records != b.Records || a.Size != b.Size {
					t.Fatalf("%s: table %d geometry diverged:\ninstalled %+v\nsnapshot  %+v", tag, i, a, b)
				}
			}
		}
	}
}

// TestStatsMerge checks the fleet aggregation arithmetic.
func TestStatsMerge(t *testing.T) {
	a := Stats{ValidatedBlocks: 10, RAMLookups: 3, MemoHits: 5, MemoMisses: 2}
	b := Stats{ValidatedBlocks: 7, RAMLookups: 1, MemoHits: 1, MemoMisses: 9, SAGPenalties: 4}
	a.Merge(b)
	want := Stats{ValidatedBlocks: 17, RAMLookups: 4, MemoHits: 6, MemoMisses: 11, SAGPenalties: 4}
	if a != want {
		t.Fatalf("Stats merge = %+v, want %+v", a, want)
	}

	v := SCView{Probes: 10, Hits: 8, PartialMisses: 1, CompleteMisses: 1, Misses: 2, MissRate: 0.2}
	v.Merge(SCView{Probes: 10, Hits: 4, PartialMisses: 2, CompleteMisses: 4, Misses: 6, MissRate: 0.6})
	if v.Probes != 20 || v.Hits != 12 || v.Misses != 8 || v.MissRate != 0.4 {
		t.Fatalf("SCView merge = %+v", v)
	}
}

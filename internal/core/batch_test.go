package core

import (
	"testing"

	"rev/internal/sigtable"
)

// Batch-boundary edge cases for the batched publish/retire pipeline
// (pipeline.go), at its fixed depth DefaultPublishBatch. The ring holds
// 256 slots and these programs retire thousands of blocks, so every run
// crosses ring wraparound mid-batch many times over.

// The lanes×format identity matrix, including the partial batch flushed
// at halt, is TestPipelinedMatchesSerial (pipeline_test.go).

// TestBatchSMCFenceParity puts the SMC epoch fence inside a batch: the
// code-version bump arrives while the producer holds unpublished claimed
// slots, so the fence must flush the partial batch before draining the
// ring — otherwise the drain deadlocks (lanes wait for records the
// producer is still holding) or the stale-epoch memo leaks across the
// fence.
func TestBatchSMCFenceParity(t *testing.T) {
	for _, withWindow := range []bool{true, false} {
		rc := DefaultRunConfig()
		rc.REV = revConfig(sigtable.Normal, 32)
		prep, err := Prepare(builderOf(smcWindowProgram(withWindow)), rc)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := prep.RunInstance(InstanceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if withWindow {
			if serial.Violation != nil {
				t.Fatalf("windowed serial run flagged: %v", serial.Violation)
			}
		} else if serial.Violation == nil || serial.Violation.Reason != ViolationHash {
			t.Fatalf("unwindowed serial run should hash-violate, got %v", serial.Violation)
		}
		tag := "smc-window"
		if !withWindow {
			tag = "smc-nowindow"
		}
		for _, lanes := range []int{1, 4} {
			piped, err := prep.RunInstance(InstanceOptions{Lanes: lanes})
			if err != nil {
				t.Fatalf("%s lanes=%d: %v", tag, lanes, err)
			}
			mustMatch(t, tag+"/lanes="+itoa(lanes), serial, piped)
		}
	}
}

// TestBatchViolationPlacement replays the attack suite through the
// batched pipeline: the violating block lands inside a batch, so the
// violation must abort the run with the serial run's figures, and the
// producer must account for the abandoned claimed slots of the partial
// batch on the stop path.
func TestBatchViolationPlacement(t *testing.T) {
	for _, sc := range attackScenarios() {
		runOnce := func(lanes int) *Result {
			t.Helper()
			rc := DefaultRunConfig()
			rc.MaxInstrs = 60_000
			rc.REV = revConfig(sigtable.Normal, 8)
			rc.AttackHook = sc.newHook()
			prep, err := Prepare(builderOf(sc.gen), rc)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			res, err := prep.RunInstance(InstanceOptions{Lanes: lanes})
			if err != nil {
				t.Fatalf("%s lanes=%d: %v", sc.name, lanes, err)
			}
			return res
		}
		serial := runOnce(0)
		if serial.Violation == nil {
			t.Fatalf("%s: serial reference missed the attack", sc.name)
		}
		for _, lanes := range []int{1, 4} {
			mustMatch(t, sc.name+"/lanes="+itoa(lanes), serial, runOnce(lanes))
		}
	}
}

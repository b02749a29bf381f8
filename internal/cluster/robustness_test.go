package cluster

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/memgov"
	"ivnt/internal/relation"
)

// resetExecDebug disarms the engine debug hooks shared by the
// in-process executors when the test ends.
func resetExecDebug(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		engine.DebugForceSpill.Store(false)
		engine.SetDebugSpillFailure(nil)
		engine.SetDebugSpillTruncate(0)
		engine.SetDebugApplyHook(nil)
	})
}

// spillyOps is a stage whose sort actually exercises the governed
// kernel on the executor side.
func spillyOps() []engine.OpDesc {
	return []engine.OpDesc{
		engine.Filter("mid >= 0"),
		engine.SortWithin("mid", "t"),
	}
}

// TestPanicQuarantine: every task attempt panics inside the executor.
// The driver must retry a contained panic a bounded number of times,
// then quarantine the partition as poisoned and abort the stage with a
// diagnosable error — and the executors must survive to run the next
// stage.
func TestPanicQuarantine(t *testing.T) {
	resetExecDebug(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	engine.SetDebugApplyHook(func() { panic("poisoned partition") })
	drv := &Driver{
		Addrs:             addrs,
		MaxRetries:        8,
		ReconnectBase:     10 * time.Millisecond,
		SpeculationFactor: -1,
	}
	before := mTaskPanics.Value()
	_, _, err = drv.RunStage(ctx, traceRel(200, 4), stageOps())
	if err == nil {
		t.Fatal("a permanently panicking stage must fail")
	}
	if !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("quarantine diagnostic missing, got: %v", err)
	}
	if !strings.Contains(err.Error(), "task panic") {
		t.Fatalf("stage error must carry the contained panic, got: %v", err)
	}
	if d := mTaskPanics.Value() - before; d < 2 {
		t.Fatalf("cluster_task_panics_total delta = %d, want >= 2 (retry before quarantine)", d)
	}

	// Containment contract: the same executors run the next stage.
	engine.SetDebugApplyHook(nil)
	rel := traceRel(200, 4)
	got, _, err := drv.RunStage(ctx, rel, stageOps())
	if err != nil {
		t.Fatalf("executors unusable after contained panics: %v", err)
	}
	mustMatchLocal(t, ctx, got, rel, stageOps())
}

// TestShuffleMapPoisoned: a shuffle map task that panics on every
// executor gets the same quarantine as a stage task — PanicRetryLimit
// contained panics, then a "poisoned" diagnostic — instead of burning
// the whole MaxRetries budget executor by executor.
func TestShuffleMapPoisoned(t *testing.T) {
	resetExecDebug(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	engine.SetDebugApplyHook(func() { panic("map kernel blew up") })
	drv := &Driver{
		Addrs:         addrs,
		MaxRetries:    8,
		ReconnectBase: 10 * time.Millisecond,
	}
	mapOps := []engine.OpDesc{engine.AddColumn("w", relation.KindFloat, "v * 0.5")}
	before, inflight := mTaskPanics.Value(), mInflight.Value()
	_, _, err = drv.ShuffleMaterialize(ctx, keyedRel(400, 4), mapOps, []string{"k"}, 4)
	if err == nil {
		t.Fatal("a permanently panicking map task must fail the shuffle")
	}
	if !strings.Contains(err.Error(), "poisoned") || !strings.Contains(err.Error(), "blew up") {
		t.Fatalf("quarantine diagnostic carrying the contained panic missing, got: %v", err)
	}
	if d := mTaskPanics.Value() - before; d < 2 {
		t.Fatalf("cluster_task_panics_total delta = %d, want >= 2 (retry before quarantine)", d)
	}
	if got := mInflight.Value(); got != inflight {
		t.Fatalf("cluster_inflight_tasks = %v after the failed round, want %v", got, inflight)
	}

	// The executors survive to run the next shuffle.
	engine.SetDebugApplyHook(nil)
	rel := keyedRel(400, 4)
	got, _, err := drv.ShuffleMaterialize(ctx, rel, mapOps, []string{"k"}, 4)
	if err != nil {
		t.Fatalf("executors unusable after contained map panics: %v", err)
	}
	mustSamePartitioned(t, "after poisoned map", shuffleChaosWant(t, ctx, rel, mapOps, 4), got)
}

// TestPanicRetryRecovers: a task panics exactly once; the retried
// attempt succeeds, so a transient panic costs one requeue, not the
// stage.
func TestPanicRetryRecovers(t *testing.T) {
	resetExecDebug(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	var once atomic.Bool
	engine.SetDebugApplyHook(func() {
		if once.CompareAndSwap(false, true) {
			panic("transient")
		}
	})
	drv := &Driver{
		Addrs:             addrs,
		MaxRetries:        8,
		ReconnectBase:     10 * time.Millisecond,
		SpeculationFactor: -1,
	}
	before := mTaskPanics.Value()
	rel := traceRel(300, 6)
	got, _, err := drv.RunStage(ctx, rel, stageOps())
	if err != nil {
		t.Fatalf("one transient panic must not fail the stage: %v", err)
	}
	if d := mTaskPanics.Value() - before; d != 1 {
		t.Fatalf("cluster_task_panics_total delta = %d, want exactly 1", d)
	}
	engine.SetDebugApplyHook(nil)
	mustMatchLocal(t, ctx, got, rel, stageOps())
}

// TestRetryableSpillErrorRequeued: spill I/O fails (injected ENOSPC) on
// the first attempts; the error is flagged retryable on the wire, so
// the driver requeues the task instead of aborting, and the stage
// completes once the "disk" recovers — without killing any executor.
func TestRetryableSpillErrorRequeued(t *testing.T) {
	resetExecDebug(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	engine.DebugForceSpill.Store(true)
	var remaining atomic.Int64
	remaining.Store(2)
	engine.SetDebugSpillFailure(func(op string) error {
		if op == "create" && remaining.Add(-1) >= 0 {
			return errENOSPC{}
		}
		return nil
	})
	drv := &Driver{
		Addrs:             addrs,
		MaxRetries:        8,
		ReconnectBase:     10 * time.Millisecond,
		SpeculationFactor: -1,
	}
	rel := traceRel(400, 8)
	got, st, err := drv.RunStage(ctx, rel, spillyOps())
	if err != nil {
		t.Fatalf("stage must survive transient spill failures: %v", err)
	}
	if st.Retries == 0 {
		t.Fatalf("retryable task errors must be requeued, stats = %+v", st)
	}
	engine.SetDebugSpillFailure(nil)
	engine.DebugForceSpill.Store(false)
	mustMatchLocal(t, ctx, got, rel, spillyOps())
}

type errENOSPC struct{}

func (errENOSPC) Error() string { return "no space left on device" }

// TestPermanentSpillFailureFailsStageNotProcess: spill I/O that never
// recovers must exhaust the retry budget and fail the stage with the
// underlying cause — while the executors stay alive for the next stage.
func TestPermanentSpillFailureFailsStageNotProcess(t *testing.T) {
	resetExecDebug(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	engine.DebugForceSpill.Store(true)
	engine.SetDebugSpillFailure(func(op string) error {
		if op == "create" {
			return errENOSPC{}
		}
		return nil
	})
	drv := &Driver{
		Addrs:             addrs,
		MaxRetries:        2,
		ReconnectBase:     10 * time.Millisecond,
		SpeculationFactor: -1,
	}
	_, _, err = drv.RunStage(ctx, traceRel(100, 2), spillyOps())
	if err == nil {
		t.Fatal("permanent spill failure must fail the stage")
	}
	if !strings.Contains(err.Error(), "no space left on device") {
		t.Fatalf("stage error must carry the spill cause, got: %v", err)
	}

	engine.SetDebugSpillFailure(nil)
	engine.DebugForceSpill.Store(false)
	rel := traceRel(100, 2)
	got, _, err := drv.RunStage(ctx, rel, spillyOps())
	if err != nil {
		t.Fatalf("executor unusable after spill failures: %v", err)
	}
	mustMatchLocal(t, ctx, got, rel, spillyOps())
}

// TestClusterSpillMatchesLocal runs governed sort work over the wire
// under a budget small enough that every task spills, and asserts the
// output is row-for-row identical to ungoverned local execution.
func TestClusterSpillMatchesLocal(t *testing.T) {
	resetExecDebug(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	g := memgov.Default()
	old := g.Budget()
	g.SetBudget(8 << 10)
	defer g.SetBudget(old)

	rel := traceRel(4000, 8)
	drv := &Driver{Addrs: addrs, ReconnectBase: 10 * time.Millisecond}
	got, _, err := drv.RunStage(ctx, rel, spillyOps())
	if err != nil {
		t.Fatal(err)
	}
	g.SetBudget(old)
	mustMatchLocal(t, ctx, got, rel, spillyOps())
}

// TestAdmissionControlDefers: an executor under memory pressure (its
// governor reports reservations above the threshold) must slow the
// driver down — dispatch pauses are counted as admission deferrals —
// without failing any task.
func TestAdmissionControlDefers(t *testing.T) {
	resetExecDebug(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// The in-process executors share the default governor: give it a
	// budget and pin a reservation above the admission threshold, the
	// picture a loaded executor paints in its result frames.
	g := memgov.Default()
	old := g.Budget()
	g.SetBudget(1 << 20)
	held := g.ForceGrant(1 << 20)
	defer func() {
		held.Release()
		g.SetBudget(old)
	}()

	rel := traceRel(400, 8)
	drv := &Driver{
		Addrs:             addrs,
		ReconnectBase:     10 * time.Millisecond,
		AdmissionPause:    time.Millisecond,
		SpeculationFactor: -1,
	}
	before := mAdmissionDeferrals.Value()
	got, st, err := drv.RunStage(ctx, rel, stageOps())
	if err != nil {
		t.Fatal(err)
	}
	if st.AdmissionDeferrals == 0 {
		t.Fatalf("pressured executors must defer dispatch, stats = %+v", st)
	}
	if d := mAdmissionDeferrals.Value() - before; d == 0 {
		t.Fatal("cluster_admission_deferrals_total did not move")
	}

	held.Release()
	g.SetBudget(old)
	mustMatchLocal(t, ctx, got, rel, stageOps())

	// With the threshold disabled the same pressure must not defer.
	g.SetBudget(1 << 20)
	held2 := g.ForceGrant(1 << 20)
	defer func() {
		held2.Release()
		g.SetBudget(old)
	}()
	drv2 := &Driver{
		Addrs:              addrs,
		ReconnectBase:      10 * time.Millisecond,
		AdmissionThreshold: -1,
		SpeculationFactor:  -1,
	}
	_, st2, err := drv2.RunStage(ctx, traceRel(100, 4), stageOps())
	if err != nil {
		t.Fatal(err)
	}
	if st2.AdmissionDeferrals != 0 {
		t.Fatalf("threshold disabled but AdmissionDeferrals = %d", st2.AdmissionDeferrals)
	}
}

// TestResultMsgCarriesGovernorSnapshot pins the wire contract: every
// result frame reports the executor governor's usage and budget, the
// inputs to driver-side admission control.
func TestResultMsgCarriesGovernorSnapshot(t *testing.T) {
	resetExecDebug(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	g := memgov.Default()
	old := g.Budget()
	g.SetBudget(64 << 20)
	defer g.SetBudget(old)

	// No held reservations: tasks must report their budget and a usage
	// below the admission threshold, so nothing defers.
	drv := &Driver{Addrs: addrs, ReconnectBase: 10 * time.Millisecond, SpeculationFactor: -1}
	_, st, err := drv.RunStage(ctx, traceRel(100, 4), stageOps())
	if err != nil {
		t.Fatal(err)
	}
	if st.AdmissionDeferrals != 0 {
		t.Fatalf("idle governor must not defer, stats = %+v", st)
	}
}

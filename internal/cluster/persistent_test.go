package cluster

import (
	"context"
	"testing"
	"time"

	"ivnt/internal/engine"
)

// A persistent driver must reuse connections — and their stage-once
// shipping caches — across stages: the second run of the same stage
// ships nothing and dials nothing.
func TestPersistentDriverReusesConnections(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	rel := traceRel(300, 6)
	drv := &Driver{Addrs: addrs, SlotsPerExecutor: 1, Persistent: true}
	defer drv.Close()

	want, _, err := engine.NewLocal(2).RunStage(ctx, rel, stageOps())
	if err != nil {
		t.Fatal(err)
	}
	run := func() engine.Stats {
		t.Helper()
		got, st, err := drv.RunStage(ctx, rel, stageOps())
		if err != nil {
			t.Fatal(err)
		}
		gr, wr := got.Rows(), want.Rows()
		if len(gr) != len(wr) {
			t.Fatalf("rows = %d, want %d", len(gr), len(wr))
		}
		for i := range gr {
			if !gr[i].Equal(wr[i]) {
				t.Fatalf("row %d differs: %v vs %v", i, gr[i], wr[i])
			}
		}
		return st
	}

	st1 := run()
	if st1.StagesShipped == 0 {
		t.Fatalf("first run shipped no stages: %+v", st1)
	}
	// Stages ship lazily, at a connection's first task: a slot whose
	// peer drained every partition before it finished dialing pools a
	// connection that never saw the stage. Warm up until both pooled
	// connections have shipped it once.
	for shipped, runs := st1.StagesShipped, 1; shipped < 2; runs++ {
		if runs == 20 {
			t.Fatalf("one executor ran no task in %d stages", runs)
		}
		shipped += run().StagesShipped
	}
	drv.poolMu.Lock()
	pooled := 0
	for _, l := range drv.pool {
		pooled += len(l)
	}
	drv.poolMu.Unlock()
	if pooled == 0 {
		t.Fatal("no connections pooled after a clean stage")
	}

	st2 := run()
	if st2.StagesShipped != 0 {
		t.Fatalf("second run re-shipped the stage %d time(s): pooled connections lost their cache", st2.StagesShipped)
	}
	if st2.Reconnects != 0 {
		t.Fatalf("second run reconnected %d time(s)", st2.Reconnects)
	}
	// Byte accounting must be per-stage deltas, not cumulative: the
	// second run moves less (no stage shipment) but still nonzero.
	if st2.BytesSent <= 0 || st2.BytesSent >= st1.BytesSent {
		t.Fatalf("second-run bytes %d not a fresh delta of first-run %d", st2.BytesSent, st1.BytesSent)
	}
}

// Close must be idempotent and stop further pooling.
func TestPersistentDriverClose(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	drv := &Driver{Addrs: addrs, Persistent: true}
	if _, _, err := drv.RunStage(ctx, traceRel(50, 2), stageOps()); err != nil {
		t.Fatal(err)
	}
	drv.Close()
	drv.Close()
	// Stages still run after Close (fresh dials, nothing pooled).
	if _, _, err := drv.RunStage(ctx, traceRel(50, 2), stageOps()); err != nil {
		t.Fatal(err)
	}
	drv.poolMu.Lock()
	defer drv.poolMu.Unlock()
	if len(drv.pool) != 0 {
		t.Fatalf("pool repopulated after Close: %v", drv.pool)
	}
}

// pooledConns snapshots the set of connections in a driver's pool.
func pooledConns(drv *Driver) map[*conn]bool {
	drv.poolMu.Lock()
	defer drv.poolMu.Unlock()
	set := map[*conn]bool{}
	for _, l := range drv.pool {
		for _, c := range l {
			set[c] = true
		}
	}
	return set
}

// Shuffle map tasks run on the same slot loop as stage tasks, so a
// persistent driver's map slots check out the pooled connections too:
// a shuffle whose map stage equals an already-shipped stage ships
// nothing and dials nothing on its task plane, returns the very same
// connections to the pool, and the next stage still finds them warm.
func TestPersistentDriverPoolsShuffleMapSlots(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	rel := traceRel(300, 6)
	// No speculation: a speculative copy still running when its stage
	// ends is closed rather than pooled, which is not what this test
	// is about.
	drv := &Driver{Addrs: addrs, SlotsPerExecutor: 1, Persistent: true, SpeculationFactor: -1}
	defer drv.Close()

	want, _, err := engine.NewLocal(2).RunStage(ctx, rel, stageOps())
	if err != nil {
		t.Fatal(err)
	}
	runStage := func() engine.Stats {
		t.Helper()
		got, st, err := drv.RunStage(ctx, rel, stageOps())
		if err != nil {
			t.Fatal(err)
		}
		mustSamePartitioned(t, "persistent stage", want, got)
		return st
	}
	// Warm both pooled connections with the stage (see
	// TestPersistentDriverReusesConnections).
	for shipped, runs := 0, 0; shipped < 2; runs++ {
		if runs == 20 {
			t.Fatalf("one executor ran no task in %d stages", runs)
		}
		shipped += runStage().StagesShipped
	}
	pooled := pooledConns(drv)
	if len(pooled) != len(addrs) {
		t.Fatalf("pooled %d connections, want %d", len(pooled), len(addrs))
	}

	const parts = 4
	wantShuffled, err := want.PartitionByKey(parts, "t")
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := drv.ShuffleMaterialize(ctx, rel, stageOps(), []string{"t"}, parts)
	if err != nil {
		t.Fatal(err)
	}
	mustSamePartitioned(t, "persistent shuffle", wantShuffled, got)
	if st.StagesShipped != 0 {
		t.Fatalf("map slots re-shipped the stage %d time(s): they dialed instead of reusing the pool", st.StagesShipped)
	}
	if st.Reconnects != 0 {
		t.Fatalf("shuffle reconnected %d time(s)", st.Reconnects)
	}
	after := pooledConns(drv)
	if len(after) != len(pooled) {
		t.Fatalf("pool holds %d connections after the shuffle, want %d", len(after), len(pooled))
	}
	for c := range after {
		if !pooled[c] {
			t.Fatal("map slots pooled a freshly dialed connection instead of returning the checked-out one")
		}
		if len(c.sentShuffles) != 0 {
			t.Fatalf("pooled connection still lists %d opened shuffle(s): the ledger grows by one per shuffle", len(c.sentShuffles))
		}
	}

	st = runStage()
	if st.StagesShipped != 0 || st.Reconnects != 0 {
		t.Fatalf("stage after the shuffle shipped %d / reconnected %d: pool lost its warm connections",
			st.StagesShipped, st.Reconnects)
	}
}

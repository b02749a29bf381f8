package memgov

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTryGrantWithinBudget(t *testing.T) {
	g := New(100)
	gr := g.TryGrant(60)
	if gr == nil {
		t.Fatal("60 of 100 denied")
	}
	if g.Used() != 60 {
		t.Fatalf("used = %d, want 60", g.Used())
	}
	if g.TryGrant(50) != nil {
		t.Fatal("60+50 of 100 granted")
	}
	if g.Denials() != 1 {
		t.Fatalf("denials = %d, want 1", g.Denials())
	}
	// Boundary: grant == remaining need must succeed (used+n > budget
	// is the denial condition, not >=).
	if g.TryGrant(40) == nil {
		t.Fatal("exact fit denied")
	}
	if g.Used() != 100 {
		t.Fatalf("used = %d, want 100", g.Used())
	}
	gr.Release()
	if g.Used() != 40 {
		t.Fatalf("used after release = %d, want 40", g.Used())
	}
}

func TestReleaseIdempotentAndNilSafe(t *testing.T) {
	g := New(10)
	gr := g.TryGrant(5)
	gr.Release()
	gr.Release()
	if g.Used() != 0 {
		t.Fatalf("double release changed usage: %d", g.Used())
	}
	var nilGrant *Grant
	nilGrant.Release() // must not panic
}

func TestUnlimitedGovernor(t *testing.T) {
	g := New(0)
	if !g.Unlimited() {
		t.Fatal("zero budget should be unlimited")
	}
	if g.TryGrant(1<<40) == nil {
		t.Fatal("unlimited governor denied")
	}
	if g.Pressure() != 0 {
		t.Fatalf("unlimited pressure = %v", g.Pressure())
	}
}

func TestForceGrantOvershoots(t *testing.T) {
	g := New(100)
	gr := g.ForceGrant(250)
	if gr == nil || g.Used() != 250 {
		t.Fatalf("force grant: used = %d, want 250", g.Used())
	}
	if p := g.Pressure(); p < 2.4 || p > 2.6 {
		t.Fatalf("pressure = %v, want 2.5", p)
	}
	if g.HighWater() != 250 {
		t.Fatalf("highwater = %d, want 250", g.HighWater())
	}
	gr.Release()
	if g.Used() != 0 {
		t.Fatalf("used after release = %d", g.Used())
	}
}

func TestAcquireBlocksUntilRelease(t *testing.T) {
	g := New(100)
	first := g.TryGrant(80)
	done := make(chan *Grant, 1)
	go func() {
		gr, err := g.Acquire(context.Background(), 50)
		if err != nil {
			t.Errorf("acquire: %v", err)
		}
		done <- gr
	}()
	select {
	case <-done:
		t.Fatal("acquire returned while budget was full")
	case <-time.After(20 * time.Millisecond):
	}
	first.Release()
	select {
	case gr := <-done:
		gr.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("acquire never woke after release")
	}
}

func TestAcquireRespectsContext(t *testing.T) {
	g := New(100)
	hold := g.TryGrant(100)
	defer hold.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx, 50); err == nil {
		t.Fatal("acquire succeeded with exhausted budget")
	}
}

func TestAcquireImpossibleRequest(t *testing.T) {
	g := New(100)
	if _, err := g.Acquire(context.Background(), 200); err == nil {
		t.Fatal("acquire of 2x budget must fail fast, not block forever")
	}
}

func TestConcurrentGrantsNeverExceedBudget(t *testing.T) {
	g := New(1000)
	var wg sync.WaitGroup
	var maxSeen atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				gr := g.TryGrant(100)
				if gr == nil {
					continue
				}
				u := g.Used()
				for {
					m := maxSeen.Load()
					if u <= m || maxSeen.CompareAndSwap(m, u) {
						break
					}
				}
				gr.Release()
			}
		}()
	}
	wg.Wait()
	if maxSeen.Load() > 1000 {
		t.Fatalf("TryGrant admitted past the budget: peak %d", maxSeen.Load())
	}
	if g.Used() != 0 {
		t.Fatalf("leaked reservations: %d", g.Used())
	}
	if g.HighWater() > 1000 {
		t.Fatalf("highwater %d exceeds budget", g.HighWater())
	}
}

func TestPressureCallbacks(t *testing.T) {
	g := New(100)
	var transitions []bool
	var mu sync.Mutex
	g.OnPressure(0.8, func(p bool) {
		mu.Lock()
		transitions = append(transitions, p)
		mu.Unlock()
	})
	a := g.TryGrant(50) // 0.5: below
	b := g.TryGrant(40) // 0.9: crosses up
	b.Release()         // 0.5: crosses down
	a.Release()
	mu.Lock()
	defer mu.Unlock()
	if len(transitions) != 2 || transitions[0] != true || transitions[1] != false {
		t.Fatalf("transitions = %v, want [true false]", transitions)
	}
}

func TestSetBudgetWakesWaiters(t *testing.T) {
	g := New(50)
	hold := g.TryGrant(50)
	defer hold.Release()
	done := make(chan struct{})
	go func() {
		gr, err := g.Acquire(context.Background(), 40)
		if err == nil {
			gr.Release()
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	g.SetBudget(200)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("raising the budget did not wake the waiter")
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0":      0,
		"1024":   1024,
		"4k":     4096,
		"4KiB":   4096,
		"1KB":    1000,
		"512MiB": 512 << 20,
		"2g":     2 << 30,
		"1.5M":   3 << 19, // 1.5 * 1MiB
		"64mb":   64e6,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseBytes(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "x", "-1", "12QB"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) succeeded", bad)
		}
	}
}

func TestVerifyMetrics(t *testing.T) {
	if err := VerifyMetrics(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultGovernorObserves(t *testing.T) {
	d := Default()
	old := d.Budget()
	defer d.SetBudget(old)
	d.SetBudget(1 << 20)
	gr := d.TryGrant(1 << 10)
	if gr == nil {
		t.Fatal("grant denied")
	}
	gr.Release()
	if d.Grants() == 0 {
		t.Fatal("default governor did not count grants")
	}
}

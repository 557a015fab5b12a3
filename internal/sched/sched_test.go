package sched

import (
	"sync"
	"testing"
)

func TestFree(t *testing.T) {
	var s Free
	if !s.Next(0) {
		t.Error("Free.Next returned false")
	}
	s.Done(0) // must not panic
}

func TestCrashLimits(t *testing.T) {
	c := NewCrash(map[int]int{0: 2})
	for i := 0; i < 2; i++ {
		if !c.Next(0) {
			t.Fatalf("process 0 crashed after %d steps, limit is 2", i)
		}
	}
	if c.Next(0) {
		t.Error("process 0 survived beyond its crash limit")
	}
	// An unlisted process never crashes.
	for i := 0; i < 100; i++ {
		if !c.Next(1) {
			t.Fatal("unlisted process crashed")
		}
	}
	c.Done(0)
	c.Done(1)
}

func TestCrashZeroStepsImmediate(t *testing.T) {
	c := NewCrash(map[int]int{3: 0})
	if c.Next(3) {
		t.Error("process with 0-step budget took a step")
	}
}

func TestRecoverBudget(t *testing.T) {
	r := NewRecover(map[int]int{0: 2}, map[int]int{0: 2})
	attempt := func(want bool) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if !r.Next(0) {
				t.Fatalf("process 0 crashed after %d steps, limit is 2", i)
			}
		}
		if r.Next(0) {
			t.Fatal("process 0 survived beyond its crash limit")
		}
		if got := r.Recover(0); got != want {
			t.Fatalf("Recover(0) = %v, want %v", got, want)
		}
	}
	// Two recoveries, each resetting the step counter; the third crash is
	// permanent.
	attempt(true)
	attempt(true)
	attempt(false)
	// A process whose Recover returned false never comes back.
	if r.Recover(0) {
		t.Error("Recover(0) granted after the budget ran out")
	}
	// Unlisted processes never crash, so Recover is never consulted; a
	// bare call must deny (zero budget) without panicking.
	for i := 0; i < 50; i++ {
		if !r.Next(1) {
			t.Fatal("unlisted process crashed")
		}
	}
	if r.Recover(1) {
		t.Error("unlisted process granted a recovery")
	}
	r.Done(0)
	r.Done(1)
}

func TestTokenGrantsSerially(t *testing.T) {
	const procs = 4
	const stepsEach = 25
	tok := NewToken(procs, 11, nil)
	defer tok.Stop()

	var mu sync.Mutex
	order := make([]int, 0, procs*stepsEach)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer tok.Done(p)
			for i := 0; i < stepsEach; i++ {
				if !tok.Next(p) {
					t.Errorf("process %d crashed unexpectedly", p)
					return
				}
				mu.Lock()
				order = append(order, p)
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	if len(order) != procs*stepsEach {
		t.Fatalf("total granted steps = %d, want %d", len(order), procs*stepsEach)
	}
	counts := make(map[int]int)
	for _, p := range order {
		counts[p]++
	}
	for p := 0; p < procs; p++ {
		if counts[p] != stepsEach {
			t.Errorf("process %d took %d steps, want %d", p, counts[p], stepsEach)
		}
	}
}

func TestTokenCrash(t *testing.T) {
	tok := NewToken(2, 3, map[int]int{0: 1})
	defer tok.Stop()
	var wg sync.WaitGroup
	taken := make([]int, 2)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer tok.Done(p)
			for i := 0; i < 5; i++ {
				if !tok.Next(p) {
					return
				}
				taken[p]++
			}
		}(p)
	}
	wg.Wait()
	if taken[0] != 1 {
		t.Errorf("crashed process took %d steps, want 1", taken[0])
	}
	if taken[1] != 5 {
		t.Errorf("healthy process took %d steps, want 5", taken[1])
	}
}

func TestTokenManyProcsWithCrashes(t *testing.T) {
	// Heavier dispatcher workload aimed at the race detector: eight
	// processes parking repeatedly, two of them crash-injected.
	const procs = 8
	const stepsEach = 30
	tok := NewToken(procs, 42, map[int]int{2: 3, 5: 0})
	defer tok.Stop()
	taken := make([]int, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer tok.Done(p)
			for i := 0; i < stepsEach; i++ {
				if !tok.Next(p) {
					return
				}
				taken[p]++
			}
		}(p)
	}
	wg.Wait()
	if taken[2] != 3 || taken[5] != 0 {
		t.Errorf("crashed processes took %d and %d steps, want 3 and 0", taken[2], taken[5])
	}
	for _, p := range []int{0, 1, 3, 4, 6, 7} {
		if taken[p] != stepsEach {
			t.Errorf("process %d took %d steps, want %d", p, taken[p], stepsEach)
		}
	}
}

func TestTokenStopReleasesWaiters(t *testing.T) {
	tok := NewToken(2, 1, nil)
	done := make(chan bool, 1)
	go func() {
		// Only one of two processes parks; the dispatcher will not grant
		// until the other parks or Stop is called.
		done <- tok.Next(0)
	}()
	tok.Stop()
	if got := <-done; got {
		t.Error("stopped scheduler granted a step")
	}
	// A Next that arrives after Stop must not park forever.
	if tok.Next(1) {
		t.Error("stopped scheduler granted a late step")
	}
}

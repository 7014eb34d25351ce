package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when a request takes time or the sender sleeps.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	service := []time.Duration{5 * ms, 25 * ms, 5 * ms, 5 * ms, 1 * ms}
	got := openLoop(clk, start, len(service), 10*ms, 1, func(_, i int) error {
		clk.advance(service[i])
		return nil
	})
	// Request 1 stalls for 25ms: request 2, due at 20ms, cannot be sent
	// before 35ms, and its latency counts the wait from its due time.
	want := []struct{ lat, lag time.Duration }{
		{5 * ms, 0}, {25 * ms, 0}, {20 * ms, 15 * ms}, {15 * ms, 10 * ms}, {6 * ms, 5 * ms},
	}
	for i, w := range want {
		if got[i].due != start.Add(time.Duration(i)*10*ms) {
			t.Errorf("request %d due at %v, want %v", i, got[i].due.Sub(start), time.Duration(i)*10*ms)
		}
		if got[i].latency() != w.lat || got[i].lag() != w.lag {
			t.Errorf("request %d: latency %v lag %v, want %v and %v", i, got[i].latency(), got[i].lag(), w.lat, w.lag)
		}
	}
}

func TestOpenLoopSendsEveryRequestOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	start := time.Now()
	got := openLoop(realClock{}, start, 40, 100*time.Microsecond, 2, func(w, i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	for i, s := range got {
		if seen[i] != 1 {
			t.Fatalf("request %d sent %d times", i, seen[i])
		}
		if s.lag() < 0 || s.latency() < s.lag() {
			t.Fatalf("request %d: lag %v, latency %v", i, s.lag(), s.latency())
		}
	}
}

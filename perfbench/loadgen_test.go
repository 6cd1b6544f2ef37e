package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps: each SleepUntil moves
// time to the target (if it is later) plus a fixed oversleep, then calls
// onSleep with the number of sleeps so far.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	over    time.Duration
	sleeps  int
	onSleep func(n int)
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	c.now = c.now.Add(c.over)
	c.sleeps++
	n, hook := c.sleeps, c.onSleep
	c.mu.Unlock()
	if hook != nil {
		hook(n)
	}
}

func TestScheduleIsSeededPoisson(t *testing.T) {
	const rate, dur = 200.0, 20 * time.Second
	a := schedule(7, rate, dur)
	b := schedule(7, rate, dur)
	c := schedule(8, rate, dur)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(c) == len(a) && c[0] == a[0] && c[len(c)-1] == a[len(a)-1] {
		t.Fatalf("seeds 7 and 8 gave the same schedule")
	}
	want := rate * dur.Seconds()
	if got := float64(len(a)); math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Fatalf("%v arrivals, want %v ± 4σ", got, want)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= dur {
			t.Fatalf("arrival %d at %v out of order or past %v", i, a[i], dur)
		}
	}
}

// TestLatenessAccounting: a clock that oversleeps by 3ms on every sleep makes
// the generator exactly that late, plus any lateness carried over when the
// next arrival was already due.
func TestLatenessAccounting(t *testing.T) {
	const over = 3 * time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0), over: over}
	g := openLoop{rate: 500, duration: time.Second, seed: 3, conns: 2, backlog: 1024, clock: clk}
	samples := g.run(func(int) error { return nil })
	sched := schedule(3, 500, time.Second)
	if len(samples) != len(sched) {
		t.Fatalf("%d samples for %d arrivals", len(samples), len(sched))
	}
	var now time.Duration
	for i, due := range sched {
		if due > now {
			now = due
		}
		now += over
		s := samples[i]
		if s.due != due || s.late != now-due || s.dropped || s.err != nil {
			t.Fatalf("arrival %d: due %v late %v dropped %v err %v; want due %v late %v", i, s.due, s.late, s.dropped, s.err, due, now-due)
		}
		if s.latency < s.late {
			t.Fatalf("arrival %d: latency %v shorter than its lateness %v", i, s.latency, s.late)
		}
	}
	rep := summarize(samples)
	if rep.lateP99 < ms(over) || rep.ok != len(sched) || rep.dropped != 0 {
		t.Fatalf("report %+v: want lateness p99 >= %v ms and every arrival ok", rep, ms(over))
	}
}

// TestLatencyFromScheduleAndDrops: with one connection stuck on the first
// request until the run ends, two arrivals wait in the backlog and the rest
// are dropped; the waiting ones are timed from when they were due, not from
// when they were sent.
func TestLatencyFromScheduleAndDrops(t *testing.T) {
	start := time.Unix(2000, 0)
	clk := &fakeClock{now: start}
	sched := schedule(11, 100, time.Second)
	started := make(chan struct{})
	release := make(chan struct{})
	clk.onSleep = func(n int) {
		switch n {
		case 2: // before dispatching arrival 1: the sender holds arrival 0
			<-started
		case len(sched) + 1: // the sleep to the end of the run
			close(release)
		}
	}
	var mu sync.Mutex
	var sent []int
	g := openLoop{rate: 100, duration: time.Second, seed: 11, conns: 1, backlog: 2, clock: clk}
	samples := g.run(func(i int) error {
		mu.Lock()
		sent = append(sent, i)
		mu.Unlock()
		if i == 0 {
			close(started)
			<-release
		}
		return nil
	})
	end := start.Add(time.Second) // the final sleep's target; over is 0
	for i, s := range samples {
		switch {
		case i <= 2:
			want := end.Sub(start.Add(sched[i]))
			if s.dropped || s.latency != want {
				t.Fatalf("arrival %d: latency %v dropped %v, want latency %v from its due time", i, s.latency, s.dropped, want)
			}
		case !s.dropped:
			t.Fatalf("arrival %d was not dropped with the backlog full", i)
		}
	}
	rep := summarize(samples)
	if rep.dropped != len(sched)-3 || rep.ok != 3 || len(sent) != 3 {
		t.Fatalf("report %+v, sent %v: want %d dropped and 3 ok", rep, sent, len(sched)-3)
	}
}

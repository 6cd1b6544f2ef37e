package main

import (
	"math"
	"sync"
	"time"

	"skipper/internal/tensor"
)

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop is the benchmark's open-loop request generator: Poisson arrivals
// at a fixed rate, each handed to one of at most conns senders (one per
// keep-alive connection). An arrival that finds every sender busy waits in a
// backlog of at most backlog arrivals; past that it is dropped. Latency is
// timed from each arrival's scheduled time, so a stall also charges the
// requests queued behind it.
type openLoop struct {
	rate     float64 // arrivals per second
	duration time.Duration
	seed     uint64
	conns    int
	backlog  int
	clock    clock
}

// sample is one arrival's outcome.
type sample struct {
	due time.Duration // scheduled offset from the start
	// late is how far behind schedule the generator dispatched it.
	late    time.Duration
	latency time.Duration // completion minus scheduled time
	dropped bool
	err     error
}

// schedule returns the arrival offsets for a Poisson process at rate over
// duration, generated from seed.
func schedule(seed uint64, rate float64, duration time.Duration) []time.Duration {
	rng := tensor.NewRNG(tensor.DeriveSeed(seed, 0x6172726976)) // "arriv"
	var out []time.Duration
	var at float64
	for {
		at += -math.Log(1-rng.Float64()) / rate
		d := time.Duration(at * float64(time.Second))
		if d >= duration {
			return out
		}
		out = append(out, d)
	}
}

// run dispatches every scheduled arrival to send and returns one sample per
// arrival. It returns after the schedule's duration has passed and every
// dispatched request has completed.
func (g openLoop) run(send func(i int) error) []sample {
	sched := schedule(g.seed, g.rate, g.duration)
	samples := make([]sample, len(sched))
	start := g.clock.Now()
	// Buffered to the backlog size: arrivals wait here for a free sender.
	jobs := make(chan int, g.backlog)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				err := send(i)
				samples[i].latency = g.clock.Now().Sub(start.Add(samples[i].due))
				samples[i].err = err
			}
		}()
	}
	for i, due := range sched {
		at := start.Add(due)
		g.clock.SleepUntil(at)
		samples[i].due = due
		samples[i].late = g.clock.Now().Sub(at)
		select {
		case jobs <- i:
		default:
			samples[i].dropped = true
		}
	}
	g.clock.SleepUntil(start.Add(g.duration))
	close(jobs)
	wg.Wait()
	return samples
}

// loadReport summarises an open-loop run.
type loadReport struct {
	arrivals, ok, dropped, failed int
	p50, p90, p99, lateP99        float64 // ms
}

func summarize(samples []sample) loadReport {
	rep := loadReport{arrivals: len(samples)}
	var lat, late []float64
	for _, s := range samples {
		late = append(late, ms(s.late))
		switch {
		case s.dropped:
			rep.dropped++
		case s.err != nil:
			rep.failed++
		default:
			rep.ok++
			lat = append(lat, ms(s.latency))
		}
	}
	rep.p50 = quantile(lat, 0.50)
	rep.p90 = quantile(lat, 0.90)
	rep.p99 = quantile(lat, 0.99)
	rep.lateP99 = quantile(late, 0.99)
	return rep
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"skipper/internal/core"
	"skipper/internal/encode"
	"skipper/internal/layers"
	"skipper/internal/models"
	"skipper/internal/parallel"
	"skipper/internal/router"
	"skipper/internal/serve"
	"skipper/internal/stream"
	"skipper/internal/tensor"
	"skipper/internal/trace"
)

// serveSpec is a workload's serving phase.
type serveSpec struct {
	model   string
	width   float64
	classes int
	inShape []int
	T       int
	// rate is the open-loop /v1/infer arrival rate through the router.
	rate float64
	// intensity bounds the request frames' per-pixel intensities, which the
	// replicas Poisson-encode: it sets the input spike density.
	intensity float32
	// frames is how many distinct request frames the arrivals cycle over.
	frames int
	// backlog is how many arrivals may wait for a free connection.
	backlog int
	// sessionsPerReplica stream sessions share one framed connection to
	// each replica; each connection sends one window per streamInterval.
	sessionsPerReplica int
	streamInterval     time.Duration
	windowSteps        int
	windowEvents       int
	quietFrac          float64
	// setups is how many times the fleet is started and warmed up;
	// setup_s is their median and the last one is measured.
	setups int
	// sequential is the request count per target of the traced run's
	// closed-loop untraced/routed/direct comparison.
	sequential int
}

// serveFrames serves dense frames: intensities uniform in [0,1], so about
// half the input spikes are set.
func serveFrames() serveSpec { return serveWith(1) }

// serveEvents serves sparse frames: intensities uniform in [0,0.1].
func serveEvents() serveSpec { return serveWith(0.1) }

func serveWith(intensity float32) serveSpec {
	return serveSpec{
		model: "customnet", width: 0.25, classes: 10, inShape: []int{2, 16, 16}, T: 24,
		rate: 100, intensity: intensity, frames: 64, backlog: 256,
		sessionsPerReplica: 2, streamInterval: 20 * time.Millisecond,
		windowSteps: 6, windowEvents: 12, quietFrac: 0.5,
		setups: 5, sequential: 200,
	}
}

func (s serveSpec) build() (*layers.Network, error) {
	return models.Build(s.model, models.Options{Width: s.width, Classes: s.classes, InShape: s.inShape})
}

func (s serveSpec) inputLen() int { return tensor.Volume(s.inShape) }

// fleet is one router fronting two serve replicas, all in this process.
type fleet struct {
	replicas []*replica
	router   *router.Router
	hs       *http.Server
	url      string
	wg       sync.WaitGroup // listener goroutines
}

type replica struct {
	server  *serve.Server
	hs      *http.Server
	fleetLN net.Listener
	url     string
}

func startFleet(s serveSpec, rt *core.Runtime, seed uint64) (*fleet, error) {
	f := &fleet{}
	var specs []router.BackendSpec
	for i := 0; i < 2; i++ {
		srv, err := serve.NewServer(serve.Config{Build: s.build, Runtime: rt, T: s.T, EarlyExit: true, EncodeSeed: seed}, "")
		if err != nil {
			f.stop()
			return nil, err
		}
		httpLN, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Drain(context.Background())
			f.stop()
			return nil, err
		}
		fleetLN, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			httpLN.Close()
			srv.Drain(context.Background())
			f.stop()
			return nil, err
		}
		r := &replica{server: srv, hs: &http.Server{Handler: srv.Handler()}, fleetLN: fleetLN, url: "http://" + httpLN.Addr().String()}
		f.replicas = append(f.replicas, r)
		f.wg.Add(2)
		go func() { defer f.wg.Done(); r.hs.Serve(httpLN) }()
		go func() { defer f.wg.Done(); srv.ServeFleet(fleetLN) }()
		specs = append(specs, router.BackendSpec{URL: r.url, FleetAddr: fleetLN.Addr().String()})
	}
	rtr, err := router.New(router.Config{Backends: specs, Tracer: rt.Tracer(), JitterSeed: int64(seed)})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rtr
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.hs = &http.Server{Handler: rtr.Handler()}
	f.url = "http://" + ln.Addr().String()
	f.wg.Add(1)
	go func() { defer f.wg.Done(); f.hs.Serve(ln) }()
	return f, nil
}

// stop shuts the fleet down and waits for its listener goroutines.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.hs != nil {
		f.hs.Shutdown(ctx)
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, r := range f.replicas {
		r.fleetLN.Close()
		r.server.Drain(ctx)
		r.hs.Shutdown(ctx)
	}
	f.wg.Wait()
}

// inferClient posts pre-encoded request bodies over at most conns
// keep-alive connections and checks every answer.
type inferClient struct {
	http    *http.Client
	bodies  [][]byte
	classes int

	mu        sync.Mutex
	batchSum  int
	savedFrac float64
	oks       int
	rejected  int
	badPreds  int
}

func newInferClient(s serveSpec, seed uint64, conns int) *inferClient {
	c := &inferClient{
		http: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		classes: s.classes,
	}
	for _, f := range requestFrames(s, seed) {
		body, _ := json.Marshal(serve.InferRequest{Input: f}) // finite floats always marshal
		c.bodies = append(c.bodies, body)
	}
	return c
}

// requestFrames are the seed's request frames: per-pixel intensities in
// [0,s.intensity] that the replicas Poisson-encode.
func requestFrames(s serveSpec, seed uint64) [][]float32 {
	out := make([][]float32, s.frames)
	for k := range out {
		rng := tensor.NewRNG(tensor.DeriveSeed(seed, 0x66726d, uint64(k))) // "frm"
		f := make([]float32, s.inputLen())
		for j := range f {
			f[j] = s.intensity * rng.Float32()
		}
		out[k] = f
	}
	return out
}

// post sends request i to base and returns an error for anything but a
// well-formed 200 with an in-range prediction.
func (c *inferClient) post(base string, i int) error {
	resp, err := c.http.Post(base+"/v1/infer", "application/json", bytes.NewReader(c.bodies[i%len(c.bodies)]))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			c.mu.Lock()
			c.rejected++
			c.mu.Unlock()
		}
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var ir serve.InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ir.Pred < 0 || ir.Pred >= c.classes {
		c.badPreds++
		return fmt.Errorf("prediction %d outside [0,%d)", ir.Pred, c.classes)
	}
	c.oks++
	c.batchSum += ir.BatchSize
	if ir.T > 0 {
		c.savedFrac += float64(ir.T-ir.StepsRun) / float64(ir.T)
	}
	return nil
}

// sequential sends requests 0..n-1 one at a time, each to every base in
// turn, and returns the latencies per base. Alternating bases exposes them
// to the same host conditions.
func (c *inferClient) sequential(n int, bases ...string) ([][]float64, error) {
	lat := make([][]float64, len(bases))
	for i := 0; i < n; i++ {
		for b, base := range bases {
			start := time.Now()
			if err := c.post(base, i); err != nil {
				return nil, err
			}
			lat[b] = append(lat[b], ms(time.Since(start)))
		}
	}
	return lat, nil
}

// streamConn drives the stream sessions of one replica over one framed
// connection: one window per interval, round-robin across its sessions.
type streamConn struct {
	client   *stream.Client
	sessions []string
	index    []int // GenWindow session index of each session
	next     []int // next window sequence number of each session
	gen      stream.GenOptions
	inputLen int
	classes  int

	latencies          []float64
	ok, skipped, fails int
	// problems are correctness failures: resets, a quiet window that did
	// not take the skip path (or a busy one that did), bad predictions.
	problems []string
}

func openStreams(s serveSpec, seed uint64, f *fleet) ([]*streamConn, error) {
	var conns []*streamConn
	for ri, r := range f.replicas {
		cl, err := stream.Dial(r.fleetLN.Addr().String(), 5*time.Second)
		if err != nil {
			closeStreams(conns)
			return nil, err
		}
		sc := &streamConn{
			client: cl, inputLen: s.inputLen(), classes: s.classes,
			gen: stream.GenOptions{Seed: seed, WindowSteps: s.windowSteps, EventsPerWindow: s.windowEvents, QuietFrac: s.quietFrac},
		}
		conns = append(conns, sc)
		for k := 0; k < s.sessionsPerReplica; k++ {
			idx := ri*s.sessionsPerReplica + k
			id := fmt.Sprintf("bench-%d", idx)
			rep, err := cl.Open(stream.OpenRequest{Session: id})
			if err != nil {
				closeStreams(conns)
				return nil, fmt.Errorf("opening stream %s: %w", id, err)
			}
			if rep.Resumed || rep.Steps != 0 {
				sc.problems = append(sc.problems, fmt.Sprintf("%s opened with prior state (steps %d)", id, rep.Steps))
			}
			sc.sessions = append(sc.sessions, id)
			sc.index = append(sc.index, idx)
			sc.next = append(sc.next, 0)
		}
	}
	return conns, nil
}

// reportStreams records the connections' correctness problems as failed
// checks.
func reportStreams(r *run, conns []*streamConn) {
	for _, sc := range conns {
		for _, p := range sc.problems {
			r.check(false, "stream: %s", p)
		}
	}
}

func closeStreams(conns []*streamConn) {
	for _, sc := range conns {
		for _, id := range sc.sessions {
			sc.client.CloseSession(id, false)
		}
		sc.client.Close()
	}
}

// window sends the next window of session k, checks the reply and reports
// whether the window took the skip path.
func (sc *streamConn) window(k int) (bool, error) {
	seq := sc.next[k]
	events := stream.GenWindow(sc.gen, sc.index[k], seq, sc.inputLen)
	rep, err := sc.client.Window(stream.WindowRequest{Session: sc.sessions[k], Seq: seq, Steps: sc.gen.WindowSteps, Events: events})
	if err != nil {
		return false, err
	}
	sc.next[k]++
	if want := (seq + 1) * sc.gen.WindowSteps; rep.Seq != seq || rep.Steps != want {
		sc.problems = append(sc.problems, fmt.Sprintf("%s window %d: reply seq %d steps %d, want steps %d (state reset)", sc.sessions[k], seq, rep.Seq, rep.Steps, want))
	}
	if quiet := len(events) == 0; rep.Skipped != quiet {
		sc.problems = append(sc.problems, fmt.Sprintf("%s window %d: quiet=%v but skipped=%v", sc.sessions[k], seq, quiet, rep.Skipped))
	}
	if rep.Pred < 0 || rep.Pred >= sc.classes {
		sc.problems = append(sc.problems, fmt.Sprintf("%s window %d: prediction %d outside [0,%d)", sc.sessions[k], seq, rep.Pred, sc.classes))
	}
	return rep.Skipped, nil
}

// pace sends windows on a fixed schedule until the duration has passed.
// Latency is timed from each window's scheduled send time.
func (sc *streamConn) pace(interval, duration time.Duration) {
	clk := wallClock{}
	start := clk.Now()
	for n := 0; ; n++ {
		at := start.Add(time.Duration(n) * interval)
		if at.Sub(start) >= duration {
			return
		}
		clk.SleepUntil(at)
		skipped, err := sc.window(n % len(sc.sessions))
		if err != nil {
			sc.fails++
			continue
		}
		sc.ok++
		if skipped {
			sc.skipped++
		}
		sc.latencies = append(sc.latencies, ms(clk.Now().Sub(at)))
	}
}

// warmUp sends a few sequential infer requests and one window per session.
func warmUp(c *inferClient, f *fleet, conns []*streamConn) error {
	if _, err := c.sequential(16, f.url); err != nil {
		return fmt.Errorf("warm-up infer: %w", err)
	}
	for _, sc := range conns {
		for k := range sc.sessions {
			if _, err := sc.window(k); err != nil {
				return fmt.Errorf("warm-up window: %w", err)
			}
		}
	}
	return nil
}

// servePhase is a workload's serving phase: the fleet, its clients and
// what the traffic slots measured.
type servePhase struct {
	s          serveSpec
	rt         *core.Runtime
	tracer     *trace.Tracer
	client     *inferClient
	f          *fleet
	conns      []*streamConn
	setups     []float64
	before     map[string]trace.SpanTotal
	poolBefore parallel.PoolStats
	samples    []sample
	slots      int
}

// newServePhase starts the fleet s.setups times (setup_s takes their
// median) and keeps the last one, warmed up, for the traffic slots.
func newServePhase(r *run, s serveSpec) (*servePhase, error) {
	p := r.phase("serve")
	p["model"], p["width"], p["T"], p["early_exit"] = s.model, s.width, s.T, true
	p["replicas"], p["infer_rate_per_s"], p["infer_conns"] = 2, s.rate, r.nproc
	p["infer_intensity_max"] = s.intensity
	p["stream_sessions"] = 2 * s.sessionsPerReplica
	p["stream_window_interval_ms"], p["stream_window_steps"] = ms(s.streamInterval), s.windowSteps
	p["stream_window_events"], p["stream_quiet_frac"] = s.windowEvents, s.quietFrac

	sp := &servePhase{s: s}
	opts := []core.RuntimeOption{core.WithThreads(r.nproc), core.WithSeed(r.seed)}
	if r.trace {
		sp.tracer = trace.New(0)
		opts = append(opts, core.WithTracer(sp.tracer))
	}
	sp.rt = core.NewRuntime(opts...)
	sp.client = newInferClient(s, r.seed, r.nproc)
	for i := 0; i < s.setups; i++ {
		if sp.f != nil {
			reportStreams(r, sp.conns)
			sp.stopFleet()
		}
		start := time.Now()
		var err error
		if sp.f, err = startFleet(s, sp.rt, r.seed); err != nil {
			sp.close()
			return nil, err
		}
		if sp.conns, err = openStreams(s, r.seed, sp.f); err != nil {
			sp.close()
			return nil, err
		}
		if err := warmUp(sp.client, sp.f, sp.conns); err != nil {
			sp.close()
			return nil, err
		}
		sp.setups = append(sp.setups, time.Since(start).Seconds())
	}
	if r.trace {
		if err := sp.compareRouted(r); err != nil {
			sp.close()
			return nil, err
		}
	}
	sp.client.mu.Lock()
	sp.client.oks, sp.client.batchSum, sp.client.savedFrac, sp.client.rejected = 0, 0, 0, 0
	sp.client.mu.Unlock()
	sp.before = spanSnapshot(sp.tracer)
	sp.poolBefore = sp.rt.Pool().Stats()
	return sp, nil
}

// compareRouted sends closed-loop requests in turn to an untraced fleet
// started next to the (idle) measured one, to the traced fleet's router and
// to one of its replicas directly: routed traced over routed untraced is
// the tracing overhead, routed minus direct the router's share.
func (sp *servePhase) compareRouted(r *run) error {
	plain := core.NewRuntime(core.WithThreads(r.nproc), core.WithSeed(r.seed))
	defer plain.Close()
	pf, err := startFleet(sp.s, plain, r.seed)
	if err != nil {
		return err
	}
	err = warmUp(sp.client, pf, nil)
	var lat [][]float64
	if err == nil {
		lat, err = sp.client.sequential(sp.s.sequential, pf.url, sp.f.url, sp.f.replicas[0].url)
	}
	pf.stop()
	if err != nil {
		return err
	}
	untraced, routed, direct := median(lat[0]), median(lat[1]), median(lat[2])
	r.set("router.overhead_ms", "ms", routed-direct)
	r.set("trace.overhead_pct.serve", "%", 100*(routed/untraced-1))
	return nil
}

func (sp *servePhase) stopFleet() {
	closeStreams(sp.conns)
	sp.conns = nil
	if sp.f != nil {
		sp.f.stop()
		sp.f = nil
	}
}

func (sp *servePhase) close() {
	sp.stopFleet()
	sp.client.http.CloseIdleConnections()
	sp.rt.Close()
}

// slot drives mixed traffic for d: open-loop infer arrivals through the
// router and paced stream windows on the replicas, at the same time.
func (sp *servePhase) slot(r *run, d time.Duration) {
	var wg sync.WaitGroup
	for _, sc := range sp.conns {
		wg.Add(1)
		go func(sc *streamConn) {
			defer wg.Done()
			sc.pace(sp.s.streamInterval, d)
		}(sc)
	}
	gen := openLoop{
		rate: sp.s.rate, duration: d, seed: tensor.DeriveSeed(r.seed, uint64(sp.slots)),
		conns: r.nproc, backlog: sp.s.backlog, clock: wallClock{},
	}
	sp.samples = append(sp.samples, gen.run(func(i int) error { return sp.client.post(sp.f.url, i) })...)
	wg.Wait()
	sp.slots++
}

// report checks the slots' outcomes, reports either the serving end-to-end
// metrics or, traced, the per-layer ones, and returns the median fleet
// set-up time in seconds.
func (sp *servePhase) report(r *run) (float64, error) {
	p := r.phase("serve")
	poolAfter := sp.rt.Pool().Stats()
	rep := summarize(sp.samples)

	var windowLat []float64
	var windowsOK, windowsSkipped, windowFails int
	for _, sc := range sp.conns {
		windowLat = append(windowLat, sc.latencies...)
		windowsOK += sc.ok
		windowsSkipped += sc.skipped
		windowFails += sc.fails
	}
	reportStreams(r, sp.conns)
	r.attempted += rep.arrivals + windowsOK + windowFails
	r.failed += rep.dropped + rep.failed + windowFails
	client := sp.client
	r.check(client.badPreds == 0, "%d infer responses had an out-of-range prediction", client.badPreds)
	r.check(rep.ok > 0 && windowsOK > 0, "no successful infer requests (%d) or stream windows (%d)", rep.ok, windowsOK)
	p["traffic_slots"] = sp.slots
	p["infer_arrivals"], p["infer_dropped"], p["infer_failed"] = rep.arrivals, rep.dropped, rep.failed
	p["stream_windows"], p["stream_window_failures"] = windowsOK, windowFails
	p["generator_late_p99_ms"] = rep.lateP99

	if !r.trace {
		r.set("infer_p50_ms", "ms", rep.p50)
		r.set("stream_window_p50_ms", "ms", median(windowLat))
		return median(sp.setups), nil
	}
	after := spanSnapshot(sp.tracer)
	r.set("serve.queue_wait_ms", "ms", spanDeltaMS(sp.before, after, "queue_wait"))
	r.set("serve.batch_execute_ms", "ms", spanDeltaMS(sp.before, after, "batch_execute"))
	client.mu.Lock()
	r.set("serve.batch_size_mean", "requests", float64(client.batchSum)/float64(max(1, client.oks)))
	r.set("serve.steps_saved_frac", "ratio", client.savedFrac/float64(max(1, client.oks)))
	r.set("serve.rejected", "count", float64(client.rejected))
	client.mu.Unlock()
	r.set("stream.skipped_frac", "ratio", float64(windowsSkipped)/float64(max(1, windowsOK)))
	r.set("serve.infer_p90_ms", "ms", rep.p90)
	r.set("serve.infer_p99_ms", "ms", rep.p99)
	r.set("harness.late_p99_ms", "ms", rep.lateP99)
	r.set("parallel.mean_lanes.serve", "lanes", parallelDelta(sp.poolBefore, poolAfter))
	if err := probeInference(r, sp.s, sp.rt.Pool()); err != nil {
		return 0, err
	}
	return median(sp.setups), writeChromeTrace(r, sp.tracer, "serve")
}

// spanSnapshot captures the tracer's per-name span totals.
func spanSnapshot(t *trace.Tracer) map[string]trace.SpanTotal {
	out := map[string]trace.SpanTotal{}
	for _, st := range t.Totals() {
		out[st.Name] = st
	}
	return out
}

// spanDeltaMS is the mean duration of the named spans recorded between two
// snapshots.
func spanDeltaMS(before, after map[string]trace.SpanTotal, name string) float64 {
	n := after[name].Count - before[name].Count
	if n <= 0 {
		return 0
	}
	return ms(after[name].Total-before[name].Total) / float64(n)
}

// probeInference times direct calls into core's inference paths on a
// private copy of the serving network: batch-1 core.Infer with early exit,
// and a stream state's full and quiet steps.
func probeInference(r *run, s serveSpec, pool *parallel.Pool) error {
	net, err := s.build()
	if err != nil {
		return err
	}
	net.SetPool(pool)
	enc := encode.Poisson{Seed: r.seed}
	frames := requestFrames(s, r.seed)
	trains := make([][]*tensor.Tensor, len(frames))
	for k, f := range frames {
		x := tensor.FromSlice(f, append([]int{1}, s.inShape...)...)
		trains[k] = enc.EncodeTrain(x, []uint64{uint64(k)}, s.T)
	}
	k := 0
	r.set("core.infer_ms.b1", "ms", timePerCall(func() {
		core.Infer(net, trains[k%len(trains)], core.InferOptions{EarlyExit: true})
		k++
	}))

	st := core.NewStreamState(net, 1)
	gen := stream.GenOptions{Seed: r.seed, WindowSteps: s.windowSteps, EventsPerWindow: s.windowEvents}
	var steps []*tensor.Tensor
	for w := 0; len(steps) < 64; w++ {
		events := stream.GenWindow(gen, 0, w, s.inputLen())
		window := make([]*tensor.Tensor, s.windowSteps)
		for t := range window {
			window[t] = tensor.New(append([]int{1}, s.inShape...)...)
		}
		for e := 0; e+1 < len(events); e += 2 {
			window[events[e]].Data[events[e+1]] = 1
		}
		steps = append(steps, window...)
	}
	k = 0
	r.set("core.stream_step_ms", "ms", timePerCall(func() {
		st.StepInput(steps[k%len(steps)])
		k++
	}))
	r.set("core.stream_quiet_ms", "ms", timePerCall(st.StepQuiet))
	return nil
}

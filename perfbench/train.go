package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"os"
	"time"

	"skipper/internal/bench"
	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/dist"
	"skipper/internal/layers"
	"skipper/internal/mem"
	"skipper/internal/models"
	"skipper/internal/parallel"
	"skipper/internal/trace"
)

// trainSpec is one training workload.
type trainSpec struct {
	model, data string
	width       float64
	classes     int
	T, C        int
	P           float64
	batch       int
	// measured is the number of timed batches per repetition; each
	// repetition trains one warm-up batch first.
	measured int
	// probeBatches is how many batches the traced run's layer probe times.
	probeBatches int
	// corrupt, when set, is called on every arm after a repetition's
	// training and before its digests are taken. Tests use it to show that
	// a weight mismatch fails the run.
	corrupt func(rep int, a *arm)
}

// specFor derives a workload from the paper's Small-scale parameters, which
// satisfy the T/C > L_n and Eq. 7 skip-percentile constraints.
func specFor(model string) (trainSpec, error) {
	w, err := bench.WorkloadFor(model, bench.Small)
	if err != nil {
		return trainSpec{}, err
	}
	return trainSpec{
		model: w.Model, data: w.Data, width: w.Width, classes: w.Classes,
		T: w.T, C: w.C, P: w.P, batch: 8, measured: 12, probeBatches: 12,
	}, nil
}

func framesSpec() (trainSpec, error) { return specFor("vgg5") }
func eventsSpec() (trainSpec, error) { return specFor("customnet") }

// strategy labels, in the order each round trains them.
const (
	labelBPTT    = "bptt"
	labelCkpt    = "ckpt"
	labelSkipper = "skipper"
	labelDP2     = "skipper-dp2"
)

// arm is one strategy's trainer (or, for skipper-dp2, coordinator plus
// worker) for one repetition.
type arm struct {
	label string
	tr    *core.Trainer
	dev   *mem.Device

	coord     *dist.Coordinator
	dmetrics  *dist.Metrics
	worker    *core.Trainer
	workerErr chan error

	walls  []float64 // per measured batch, ms
	stats  []core.StepStats
	dp     []core.DPStepStats
	broken bool
}

func (a *arm) close() {
	if a.coord != nil {
		a.coord.Finish("benchmark repetition complete")
		a.coord = nil
	}
	if a.workerErr != nil {
		<-a.workerErr
		a.workerErr = nil
	}
	if a.worker != nil {
		a.worker.Close()
	}
	if a.tr != nil {
		a.tr.Close()
	}
}

// repOut is what one repetition measured.
type repOut struct {
	setup   time.Duration
	arms    []*arm
	digests map[string]string
	peaks   map[string]int64
	peakAct map[string]int64
	loss    map[string]float64
}

func (s trainSpec) strategy(label string) core.Strategy {
	switch label {
	case labelBPTT:
		return core.BPTT{}
	case labelCkpt:
		return core.Checkpoint{C: s.C}
	default:
		return core.Skipper{C: s.C, P: s.P}
	}
}

// labels lists every strategy a repetition trains: the three single-process
// strategies and skipper at world 2 over the dist coordinator/worker
// protocol.
func (s trainSpec) labels() []string {
	return []string{labelBPTT, labelCkpt, labelSkipper, labelDP2}
}

func (s trainSpec) newTrainer(rt *core.Runtime, data dataset.Source, label string) (*core.Trainer, *mem.Device, error) {
	net, err := models.Build(s.model, models.Options{Width: s.width, Classes: s.classes, InShape: data.InShape()})
	if err != nil {
		return nil, nil, err
	}
	dev := mem.Unlimited()
	tr, err := rt.NewTrainer(net, data, s.strategy(label), core.Config{T: s.T, Batch: s.batch, Device: dev})
	return tr, dev, err
}

// newArm builds one strategy on a fresh trainer.
func (s trainSpec) newArm(rt *core.Runtime, data dataset.Source, label string) (*arm, error) {
	a := &arm{label: label}
	tr, dev, err := s.newTrainer(rt, data, label)
	if err != nil {
		return nil, err
	}
	a.tr, a.dev = tr, dev
	if label != labelDP2 {
		return a, nil
	}
	a.dmetrics = dist.NewMetrics(2)
	a.coord, err = dist.NewCoordinator(tr, dist.Config{World: 2, Tracer: rt.Tracer(), Metrics: a.dmetrics})
	if err != nil {
		tr.Close()
		return nil, err
	}
	a.worker, _, err = s.newTrainer(rt, data, label)
	if err != nil {
		a.coord.Finish("worker build failed")
		tr.Close()
		return nil, err
	}
	a.workerErr = make(chan error, 1)
	coord := a.coord
	go func(wtr *core.Trainer) {
		a.workerErr <- dist.RunWorker(wtr, dist.WorkerConfig{
			Tracer: rt.Tracer(),
			Dial: func() (net.Conn, error) {
				cs, ws := net.Pipe()
				coord.Admit(cs)
				return ws, nil
			},
		})
	}(a.worker)
	return a, nil
}

// step trains one batch on the arm and returns its wall time.
func (a *arm) step(batch []int) (time.Duration, core.StepStats, *core.DPStepStats, error) {
	start := time.Now()
	if a.coord != nil {
		st, err := a.coord.TrainRound(dataset.Train, batch)
		return time.Since(start), st.StepStats, &st, err
	}
	st, err := a.tr.TrainBatchIndices(dataset.Train, batch)
	return time.Since(start), st, nil, err
}

// trainRep runs one repetition: fresh trainers for every strategy with the
// same seed and batch order, one warm-up batch each, then s.measured batches
// interleaved round by round so host drift hits every strategy alike.
func trainRep(r *run, s trainSpec, rt *core.Runtime, rep int) (repOut, error) {
	out := repOut{digests: map[string]string{}, peaks: map[string]int64{}, peakAct: map[string]int64{}, loss: map[string]float64{}}
	setupStart := time.Now()
	data, err := dataset.Open(s.data, r.seed)
	if err != nil {
		return out, err
	}
	batches := dataset.Batches(dataset.Indices(data, dataset.Train, r.seed, 0, true), s.batch)
	if len(batches) < s.measured+1 {
		return out, fmt.Errorf("%s has %d batches, need %d", s.data, len(batches), s.measured+1)
	}
	defer func() {
		for _, a := range out.arms {
			a.close()
		}
	}()
	for _, label := range s.labels() {
		a, err := s.newArm(rt, data, label)
		if err != nil {
			return out, fmt.Errorf("building %s: %w", label, err)
		}
		out.arms = append(out.arms, a)
	}
	for _, a := range out.arms {
		if _, _, _, err := a.step(batches[0]); err != nil {
			return out, fmt.Errorf("%s warm-up batch: %w", a.label, err)
		}
		a.dev.ResetPeaks()
	}
	out.setup = time.Since(setupStart)

	for i := 1; i <= s.measured; i++ {
		for _, a := range out.arms {
			if a.broken {
				continue
			}
			r.attempted++
			wall, st, dp, err := a.step(batches[i])
			if err == nil && (math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0)) {
				err = fmt.Errorf("non-finite loss %v", st.Loss)
			}
			if err != nil {
				r.failed++
				a.broken = true
				r.check(false, "%s batch %d failed: %v", a.label, i, err)
				continue
			}
			a.walls = append(a.walls, ms(wall))
			a.stats = append(a.stats, st)
			if dp != nil {
				a.dp = append(a.dp, *dp)
			}
		}
	}
	for _, a := range out.arms {
		if s.corrupt != nil {
			s.corrupt(rep, a)
		}
		out.digests[a.label] = weightDigest(a.tr.Net)
		out.peaks[a.label] = a.dev.PeakReserved()
		out.peakAct[a.label] = a.dev.PeakBy(mem.Activations)
		var loss float64
		for _, st := range a.stats {
			loss += st.Loss
		}
		out.loss[a.label] = loss / float64(max(1, len(a.stats)))
	}
	for _, a := range out.arms {
		if a.coord == nil {
			continue
		}
		// The worker applies the last round's reduced gradients after the
		// coordinator's TrainRound returns; read its weights only once it
		// has exited.
		a.coord.Finish("benchmark repetition complete")
		a.coord = nil
		if err := <-a.workerErr; err != nil {
			r.check(false, "%s rep %d worker: %v", a.label, rep, err)
		}
		a.workerErr = nil
		w := weightDigest(a.worker.Net)
		r.check(w == out.digests[a.label], "%s rep %d: worker weights %s differ from coordinator %s", a.label, rep, w, out.digests[a.label])
	}
	r.check(out.digests[labelBPTT] == out.digests[labelCkpt],
		"rep %d: bptt weights %s and ckpt weights %s differ", rep, out.digests[labelBPTT], out.digests[labelCkpt])
	return out, nil
}

// weightDigest hashes every parameter's float bits in network order.
func weightDigest(net *layers.Network) string {
	h := sha256.New()
	var buf [4]byte
	for _, p := range net.Params() {
		h.Write([]byte(p.Name))
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// trainPhase is a workload's training phase: the runtimes its repetitions
// train on and what they measured.
type trainPhase struct {
	s             trainSpec
	plain, traced *core.Runtime
	tracer        *trace.Tracer
	poolBefore    parallel.PoolStats
	reps          []repOut
	plainReps     []int
	tracedReps    []int
}

func newTrainPhase(r *run, s trainSpec) *trainPhase {
	p := r.phase("train")
	p["model"], p["dataset"], p["width"] = s.model, s.data, s.width
	p["T"], p["C"], p["p"], p["batch"] = s.T, s.C, s.P, s.batch
	p["measured_batches_per_rep"], p["strategies"] = s.measured, s.labels()
	tp := &trainPhase{s: s, plain: core.NewRuntime(core.WithThreads(r.nproc), core.WithSeed(r.seed))}
	tp.traced = tp.plain
	if r.trace {
		tp.tracer = trace.New(0)
		tp.traced = core.NewRuntime(core.WithThreads(r.nproc), core.WithSeed(r.seed), core.WithTracer(tp.tracer))
	}
	tp.poolBefore = tp.traced.Pool().Stats()
	return tp
}

func (tp *trainPhase) close() {
	if tp.traced != tp.plain {
		tp.traced.Close()
	}
	tp.plain.Close()
}

// rep trains one repetition. Traced runs alternate untraced and traced
// repetitions, so the tracing overhead is measured inside the same run.
func (tp *trainPhase) rep(r *run) error {
	k := len(tp.reps)
	rt := tp.plain
	if r.trace && k%2 == 1 {
		rt = tp.traced
		tp.tracedReps = append(tp.tracedReps, k)
	} else {
		tp.plainReps = append(tp.plainReps, k)
	}
	out, err := trainRep(r, tp.s, rt, k)
	if err != nil {
		return err
	}
	tp.reps = append(tp.reps, out)
	return nil
}

// report checks the repetitions against each other, reports either the
// training end-to-end metrics or, traced, the per-layer ones, and returns
// the median repetition set-up time in seconds. It needs at least two
// repetitions, so the cross-repetition digest check always runs.
func (tp *trainPhase) report(r *run) (float64, error) {
	s, reps, plainReps, tracedReps := tp.s, tp.reps, tp.plainReps, tp.tracedReps
	traced, tracer, poolBefore := tp.traced, tp.tracer, tp.poolBefore
	p := r.phase("train")
	poolAfter := traced.Pool().Stats()
	p["repetitions"] = len(reps)
	first := reps[0]
	for i, out := range reps[1:] {
		for _, label := range []string{labelSkipper, labelDP2, labelBPTT} {
			if d, ok := first.digests[label]; ok {
				r.check(out.digests[label] == d, "%s weights differ between repetition 0 (%s) and %d (%s)", label, d, i+1, out.digests[label])
			}
		}
		for label, p := range first.peaks {
			r.check(out.peaks[label] == p, "%s peak memory differs between repetition 0 (%d) and %d (%d)", label, p, i+1, out.peaks[label])
		}
	}

	var setups []float64
	for _, out := range reps {
		setups = append(setups, out.setup.Seconds())
	}
	if !r.trace {
		for _, label := range s.labels() {
			r.set("train_sps."+label, "samples/s", float64(s.batch)/(median(wallsOf(reps, plainReps, label))/1000))
			if label != labelDP2 {
				r.set("train_peak_mib."+label, "MiB", float64(first.peaks[label])/mib)
			}
		}
		r.set("train_loss.skipper", "loss", first.loss[labelSkipper])
		return median(setups), nil
	}

	// Traced run: per-layer metrics from the traced repetitions only.
	var plainSum, tracedSum float64
	for _, label := range s.labels() {
		plainSum += median(wallsOf(reps, plainReps, label))
		tracedSum += median(wallsOf(reps, tracedReps, label))
	}
	r.set("trace.overhead_pct.train", "%", 100*(tracedSum/plainSum-1))
	var bpttFwdMS float64
	for _, label := range []string{labelBPTT, labelCkpt, labelSkipper} {
		var fwd, rec, bwd []float64
		var fsteps, rsteps, ssteps int
		for _, i := range tracedReps {
			for _, st := range armOf(reps[i], label).stats {
				fwd = append(fwd, ms(st.ForwardTime))
				rec = append(rec, ms(st.RecomputeTime))
				bwd = append(bwd, ms(st.BackwardTime))
				fsteps += st.ForwardSteps
				rsteps += st.RecomputedSteps
				ssteps += st.SkippedSteps
			}
		}
		r.set("core.forward_ms."+label, "ms", median(fwd))
		if label == labelBPTT {
			bpttFwdMS = median(fwd)
		}
		if label != labelBPTT {
			r.set("core.recompute_ms."+label, "ms", median(rec))
		}
		r.set("core.backward_ms."+label, "ms", median(bwd))
		r.set("core.recompute_frac."+label, "ratio", float64(rsteps)/float64(max(1, fsteps)))
		if label == labelSkipper {
			r.set("core.skip_frac.skipper", "ratio", float64(ssteps)/float64(max(1, fsteps)))
		}
		r.set("mem.peak_activations_mib."+label, "MiB", float64(reps[tracedReps[0]].peakAct[label])/mib)
	}
	spans := spanSnapshot(tracer)
	r.set("opt.step_ms", "ms", spanDeltaMS(nil, spans, "opt_step"))
	r.set("dataset.encode_ms", "ms", spanDeltaMS(nil, spans, "encode"))
	r.set("parallel.mean_lanes.train", "lanes", parallelDelta(poolBefore, poolAfter))
	var round, compute, exchange, hidden []float64
	var bytes int64
	var rounds int
	for _, i := range tracedReps {
		a := armOf(reps[i], labelDP2)
		for j, st := range a.dp {
			round = append(round, a.walls[j])
			compute = append(compute, ms(st.SlowestReplica))
			exchange = append(exchange, ms(st.ExchangeBusy))
			hidden = append(hidden, st.OverlapFrac)
		}
		bytes += a.dmetrics.ReduceBytes()
		rounds += len(a.dp) + 1 // plus the warm-up round
	}
	r.set("dist.round_ms", "ms", median(round))
	r.set("dist.compute_ms", "ms", median(compute))
	r.set("dist.exchange_ms", "ms", median(exchange))
	r.set("dist.exchange_hidden_frac", "ratio", median(hidden))
	r.set("dist.bytes_per_round", "bytes", float64(bytes)/float64(max(1, rounds)))
	if err := probeLayers(r, s, traced, bpttFwdMS); err != nil {
		return 0, err
	}
	return median(setups), writeChromeTrace(r, tracer, "train")
}

// armOf returns the repetition's arm with the given label.
func armOf(out repOut, label string) *arm {
	for _, a := range out.arms {
		if a.label == label {
			return a
		}
	}
	return &arm{label: label}
}

// wallsOf pools the per-batch wall times of one strategy over the given
// repetitions.
func wallsOf(reps []repOut, idx []int, label string) []float64 {
	var w []float64
	for _, i := range idx {
		w = append(w, armOf(reps[i], label).walls...)
	}
	return w
}

// writeChromeTrace writes one phase's trace next to the run record.
func writeChromeTrace(r *run, t *trace.Tracer, phase string) error {
	f, err := os.Create(r.recordPath(phase + ".chrome.json"))
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"fmt"
	"math"
	"time"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/layers"
	"skipper/internal/models"
	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// reconcileTol is how far the layer probe's summed forward time per timestep
// may stray from the trainer's own forward time per timestep (as a share of
// the latter) before the traced run fails: beyond it the probe is measuring
// something other than the trainer's forward pass.
const reconcileTol = 0.25

// layerTimes is one probe pass over a batch's T timesteps.
type layerTimes struct {
	fwd, bwd []time.Duration
	spikes   []float64 // summed spike outputs per layer
	volume   []int     // output elements per timestep per layer
	inSpikes float64
	inVolume int
	// inputs holds each layer's input at the middle timestep and states its
	// state there, for the kernel probes.
	inputs []*tensor.Tensor
	states []*layers.LayerState
	prev   []*layers.LayerState
}

// probePass times every layer's Forward and Backward over one batch's T
// timesteps, dispatching to ForwardPacked/BackwardPacked exactly where
// layers.Network.ForwardStep/BackwardStep would. The gradient injected at
// the last timestep is the real cross-entropy gradient, so backward sees the
// trainer's sparsity. Parameter gradients are zeroed afterwards.
func probePass(net *layers.Network, input []*tensor.Tensor, labels []int, rng *tensor.RNG) layerTimes {
	L, T := len(net.Layers), len(input)
	lt := layerTimes{
		fwd: make([]time.Duration, L), bwd: make([]time.Duration, L),
		spikes: make([]float64, L), volume: make([]int, L),
		inputs: make([]*tensor.Tensor, L),
	}
	net.BeginIteration(rng)
	defer net.EndIteration()
	records := make([][]*layers.LayerState, T)
	var prev []*layers.LayerState
	for t := 0; t < T; t++ {
		cur := input[t]
		lt.inSpikes += float64(tensor.Sum(cur))
		lt.inVolume = cur.Len()
		var curP *tensor.PackedSpikes
		if net.SpikePack() {
			curP, _ = tensor.PackSpikes(cur)
		}
		states := make([]*layers.LayerState, L)
		for i, l := range net.Layers {
			if t == T/2 {
				lt.inputs[i] = cur
			}
			var p *layers.LayerState
			if prev != nil {
				p = prev[i]
			}
			start := time.Now()
			var st *layers.LayerState
			if pf, ok := l.(layers.PackedForward); ok && curP != nil {
				st = pf.ForwardPacked(cur, curP, p)
			} else {
				st = l.Forward(cur, p)
			}
			lt.fwd[i] += time.Since(start)
			lt.spikes[i] += st.SpikeSum()
			lt.volume[i] = tensor.Volume(st.OutShape())
			states[i] = st
			cur, curP = st.O, st.OPacked
		}
		if t == T/2 {
			lt.states, lt.prev = states, prev
		}
		records[t] = states
		prev = states
	}

	logits := net.Logits(records[T-1])
	dlogits := tensor.New(logits.Shape()...)
	tensor.CrossEntropy(logits, labels, dlogits)
	var deltas []*layers.Delta
	for t := T - 1; t >= 0; t-- {
		states := records[t]
		next := make([]*layers.Delta, L)
		var gradFlow *tensor.Tensor
		for i := L - 1; i >= 0; i-- {
			l := net.Layers[i]
			gradOut := gradFlow
			if i == L-1 && t == T-1 {
				gradOut = dlogits
			}
			if gradOut == nil {
				gradOut = tensor.New(states[i].OutShape()...)
			}
			var din *layers.Delta
			if deltas != nil {
				din = deltas[i]
			}
			var prevPacked *tensor.PackedSpikes
			if i > 0 {
				prevPacked = states[i-1].OPacked
			}
			start := time.Now()
			var gradIn *tensor.Tensor
			var dout *layers.Delta
			if pb, ok := l.(layers.PackedBackward); ok && prevPacked != nil {
				gradIn, dout = pb.BackwardPacked(prevPacked, states[i], gradOut, din)
			} else {
				in := input[t]
				if i > 0 {
					in = states[i-1].DenseO()
				}
				gradIn, dout = l.Backward(in, states[i], gradOut, din)
			}
			lt.bwd[i] += time.Since(start)
			next[i] = dout
			gradFlow = gradIn
		}
		deltas = next
	}
	net.ZeroGrads()
	return lt
}

// probeLayers reports the per-layer, tensor and snn metrics of a training
// workload and reconciles the layer probe with the trainer's forward time.
func probeLayers(r *run, s trainSpec, rt *core.Runtime, bpttFwdMS float64) error {
	data, err := dataset.Open(s.data, r.seed)
	if err != nil {
		return err
	}
	net, err := models.Build(s.model, models.Options{Width: s.width, Classes: s.classes, InShape: data.InShape()})
	if err != nil {
		return err
	}
	net.SetPool(rt.Pool())
	batches := dataset.Batches(dataset.Indices(data, dataset.Train, r.seed, 0, true), s.batch)
	keys := make([]string, len(net.Layers))
	for i, l := range net.Layers {
		keys[i] = layerKey(l)
	}
	fwd := map[string][]float64{}
	bwd := map[string][]float64{}
	density := map[string]float64{}
	var inSpikes, inElems float64
	var last layerTimes
	var perStep []float64
	// Batch 0 is an untimed warm-up pass, as the trainers' warm-up batch is:
	// the first pass on a fresh network grows its layers' scratch buffers.
	for b := 0; b <= s.probeBatches; b++ {
		input, labels := data.SpikeBatch(dataset.Train, batches[b], s.T)
		lt := probePass(net, input, labels, tensor.NewRNG(tensor.DeriveSeed(r.seed, uint64(b))))
		if b == 0 {
			continue
		}
		batchFwd := map[string]float64{}
		batchBwd := map[string]float64{}
		var sum time.Duration
		for i, l := range net.Layers {
			batchFwd[keys[i]] += ms(lt.fwd[i])
			batchBwd[keys[i]] += ms(lt.bwd[i])
			if _, conv := l.(*layers.SpikingConv2D); conv && spiking(l) {
				density[keys[i]] += lt.spikes[i] / float64(s.T*lt.volume[i])
			}
			sum += lt.fwd[i]
		}
		for k, v := range batchFwd {
			fwd[k] = append(fwd[k], v)
			bwd[k] = append(bwd[k], batchBwd[k])
		}
		perStep = append(perStep, ms(sum)/float64(s.T))
		inSpikes += lt.inSpikes
		inElems += float64(s.T * lt.inVolume)
		last = lt
	}
	r.set("layers.spike_density.input", "ratio", inSpikes/inElems)
	for k := range fwd {
		r.set("layers.fwd_ms."+k, "ms", median(fwd[k]))
		r.set("layers.bwd_ms."+k, "ms", median(bwd[k]))
	}
	for k, d := range density {
		r.set("layers.spike_density."+k, "ratio", d/float64(s.probeBatches))
	}
	corePerStep := bpttFwdMS / float64(s.T)
	ratio := median(perStep) / corePerStep
	p := r.phase("train")
	p["layer_forward_per_step_ms"] = median(perStep)
	p["core_forward_per_step_ms"] = corePerStep
	r.check(math.Abs(ratio-1) <= reconcileTol,
		"layer probe forward %.4f ms/step vs core.forward_ms.bptt %.4f ms/step: ratio %.3f outside 1±%.2f",
		median(perStep), corePerStep, ratio, reconcileTol)
	return probeKernels(r, net, last, rt.Pool())
}

// layerKey names a layer in the per-layer metrics. Conv layers keep their
// own names (conv1, conv2, ...), which both workloads' models share; the
// pooling layers and the linear layers (the readout included) are summed as
// "pool" and "fc", so every model reports the same names.
func layerKey(l layers.Layer) string {
	switch l.(type) {
	case *layers.SpikingConv2D:
		return l.Name()
	case *layers.SpikingLinear:
		return "fc"
	case *layers.AvgPool2D, *layers.GlobalAvgPool:
		return "pool"
	}
	return l.Name()
}

// spiking reports whether a layer's output is a spike train (stateful and
// not the readout, whose output is a membrane potential).
func spiking(l layers.Layer) bool {
	if lin, ok := l.(*layers.SpikingLinear); ok && lin.Readout {
		return false
	}
	return l.Stateful()
}

// probeKernels times the tensor kernels at the workload's largest conv and
// linear shapes, on the real spike inputs those layers saw, and the LIF
// update at the largest spiking layer.
func probeKernels(r *run, net *layers.Network, lt layerTimes, pool *parallel.Pool) error {
	rng := tensor.NewRNG(tensor.DeriveSeed(r.seed, 0x6b65726e)) // "kern"
	var conv func()
	var convFlops, linFlops float64
	var lin func()
	lif := -1
	for i, l := range net.Layers {
		x := lt.inputs[i]
		switch l := l.(type) {
		case *layers.SpikingConv2D:
			xs := x.Shape()
			sp := l.Spec
			oh, ow := sp.OutSize(xs[2], xs[3])
			f := 2 * float64(xs[0]*sp.OutChannels*oh*ow*sp.InChannels*sp.KernelH*sp.KernelW)
			if f > convFlops {
				convFlops = f
				out := tensor.New(xs[0], sp.OutChannels, oh, ow)
				w := tensor.New(sp.OutChannels, sp.InChannels, sp.KernelH, sp.KernelW)
				rng.FillNorm(w, 0, 0.1)
				sc := tensor.NewScratch()
				conv = func() { tensor.Conv2D(pool, out, x, w, nil, sp, sc) }
			}
		case *layers.SpikingLinear:
			in := x.Len() / x.Dim(0)
			f := 2 * float64(x.Dim(0)*in*l.Out)
			if f > linFlops {
				linFlops = f
				xf := x.Reshape(x.Dim(0), in)
				w := tensor.New(l.Out, in)
				rng.FillNorm(w, 0, 0.1)
				dst := tensor.New(x.Dim(0), l.Out)
				lin = func() { tensor.MatMulTransB(pool, dst, xf, w) }
			}
		}
		if spiking(l) && lt.prev != nil && (lif < 0 || lt.volume[i] > lt.volume[lif]) {
			lif = i
		}
	}
	if conv == nil || lin == nil || lif < 0 {
		return fmt.Errorf("model lacks a conv, linear or spiking layer to probe")
	}
	r.set("tensor.conv2d_gflops", "GFLOP/s", convFlops/1e9/(timePerCall(conv)/1000))
	r.set("tensor.matmul_gflops", "GFLOP/s", linFlops/1e9/(timePerCall(lin)/1000))

	prev, st := lt.prev[lif], lt.states[lif]
	u := tensor.New(st.U.Shape()...)
	o := tensor.New(st.U.Shape()...)
	current := tensor.New(st.U.Shape()...)
	rng.FillNorm(current, 0, 0.5)
	params := snn.DefaultParams()
	r.set("snn.lif_ms", "ms", timePerCall(func() { snn.StepLIF(pool, u, o, prev.U, prev.DenseO(), current, params) }))
	return nil
}

// timePerCall is the median of five blocks' mean call time in ms, each
// block running the call for about 20ms.
func timePerCall(fn func()) float64 {
	fn()
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(start) >= 5*time.Millisecond {
			break
		}
		n *= 2
	}
	n *= 4
	var blocks []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		blocks = append(blocks, ms(time.Since(start))/float64(n))
	}
	return median(blocks)
}

// parallelDelta is the mean lanes per pool run between two snapshots.
func parallelDelta(before, after parallel.PoolStats) float64 {
	return parallel.PoolStats{Runs: after.Runs - before.Runs, LanesUsed: after.LanesUsed - before.LanesUsed}.MeanLanes()
}

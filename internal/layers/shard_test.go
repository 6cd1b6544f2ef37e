package layers_test

import (
	"fmt"
	"math"
	"testing"

	"skipper/internal/layers"
	"skipper/internal/models"
	"skipper/internal/parallel"
	"skipper/internal/snn"
	"skipper/internal/tensor"
)

// The network step shards each timestep by sample across the pool. These
// tests pin the contract that makes that invisible: a sharded train step is
// bitwise the serial (nil-pool) step — every layer's U and O at every
// timestep, every δ, and every parameter gradient — at every pool width and
// batch size, including batches smaller than the pool and batches the pool
// does not divide.

const shardT = 3

// shardCase is one network configuration under test.
type shardCase struct {
	name  string
	model string
	opts  models.Options
	// build, when set, replaces the registry build (stacks using the layers
	// no registered model has).
	build func() (*layers.Network, error)
	pack  bool // spike-pack mode
	// lazy turns some records into lazy checkpoint boundaries (packed bits
	// only) before they are reused, as the checkpointing strategies do.
	lazy bool
}

func shardCases() []shardCase {
	base := models.Options{InShape: []int{2, 8, 8}, Classes: 4, Width: 0.25}
	var cs []shardCase
	for _, m := range models.Names() {
		cs = append(cs, shardCase{name: m, model: m, opts: base})
	}
	bn := base
	bn.BatchNorm = true
	drop := base
	drop.DropoutP = 0.3
	cs = append(cs,
		shardCase{name: "vgg5-batchnorm", model: "vgg5", opts: bn},
		shardCase{name: "lenet-batchnorm", model: "lenet", opts: bn},
		shardCase{name: "vgg5-dropout", model: "vgg5", opts: drop},
		shardCase{name: "vgg5-spikepack", model: "vgg5", opts: base, pack: true, lazy: true},
		shardCase{name: "resnet20-spikepack", model: "resnet20", opts: base, pack: true, lazy: true},
		shardCase{name: "customnet-spikepack", model: "customnet", opts: base, pack: true},
		shardCase{name: "maxpool-recurrent", build: maxPoolRecurrent},
		shardCase{name: "maxpool-recurrent-spikepack", build: maxPoolRecurrent, pack: true, lazy: true},
	)
	return cs
}

// maxPoolRecurrent stacks the layers no registered model uses: max pooling
// (whose record holds argmax indices into the batch) and lateral recurrence.
func maxPoolRecurrent() (*layers.Network, error) {
	n, s := snn.DefaultParams(), snn.Triangle{}
	net := layers.NewNetwork("maxpool-recurrent", []int{2, 8, 8},
		layers.NewSpikingConv2D("conv1", 4, 3, 1, 1, n, s),
		layers.NewMaxPool2D("pool1", 2),
		layers.NewDropout("drop1", 0.25),
		layers.NewRecurrentSpikingLinear("rec1", 12, n, s),
		layers.NewReadout("out", 4, n),
	)
	return net, net.Build(tensor.NewRNG(5))
}

// stepRun is everything one train step produced.
type stepRun struct {
	records [][]*layers.LayerState // per timestep, per layer
	deltas  [][]*layers.Delta      // per timestep (backward order), per layer
	grads   []*tensor.Tensor
}

// lazyCopy returns a checkpoint-boundary form of a record: spikes only as
// packed bits where a packed view exists.
func lazyCopy(st *layers.LayerState) *layers.LayerState {
	c := &layers.LayerState{U: st.U, O: st.O, OPacked: st.OPacked}
	if c.OPacked != nil {
		c.O = nil
	}
	for _, sub := range st.Sub {
		c.Sub = append(c.Sub, lazyCopy(sub))
	}
	return c
}

func lazyStates(states []*layers.LayerState) []*layers.LayerState {
	out := make([]*layers.LayerState, len(states))
	for i, st := range states {
		out[i] = lazyCopy(st)
	}
	return out
}

// trainStep runs a full BPTT step over shardT timesteps: forward storing
// every record, a readout loss at every timestep plus an extra gradient at
// an interior layer, and the backward through time.
func trainStep(t *testing.T, net *layers.Network, c shardCase, batch int) stepRun {
	t.Helper()
	net.ZeroGrads()
	net.BeginIteration(tensor.NewRNG(11))
	defer net.EndIteration()
	rng := tensor.NewRNG(uint64(29 + batch))
	in := append([]int{batch}, net.InShape...)
	inputs := make([]*tensor.Tensor, shardT)
	for s := range inputs {
		inputs[s] = tensor.New(in...)
		for i := range inputs[s].Data {
			if rng.Float32() < 0.4 {
				inputs[s].Data[i] = 1
			}
		}
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % 4
	}

	var run stepRun
	var prev []*layers.LayerState
	for s := 0; s < shardT; s++ {
		if c.lazy && s == 1 && prev != nil {
			prev = lazyStates(prev) // recompute from a boundary record
		}
		states := net.ForwardStep(inputs[s], prev)
		run.records = append(run.records, states)
		prev = states
	}

	L := len(net.Layers)
	mid := L / 2
	var deltas []*layers.Delta
	for s := shardT - 1; s >= 0; s-- {
		logits := net.Logits(run.records[s])
		dl := tensor.New(logits.Shape()...)
		tensor.CrossEntropy(logits, labels, dl)
		inject := map[int]*tensor.Tensor{L - 1: dl}
		if s%2 == 0 {
			g := tensor.New(run.records[s][mid].OutShape()...)
			for i := range g.Data {
				g.Data[i] = float32(i%7)/7 - 0.4
			}
			inject[mid] = g
		}
		states := run.records[s]
		if c.lazy && s == 0 {
			states = lazyStates(states)
		}
		deltas = net.BackwardStep(inputs[s], states, inject, deltas)
		run.deltas = append(run.deltas, deltas)
	}
	for _, p := range net.Params() {
		run.grads = append(run.grads, p.G.Clone())
	}
	return run
}

func buildShardNet(t *testing.T, c shardCase, pool *parallel.Pool) *layers.Network {
	t.Helper()
	build := c.build
	if build == nil {
		build = func() (*layers.Network, error) { return models.Build(c.model, c.opts) }
	}
	net, err := build()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	net.SetPool(pool)
	net.SetSpikePack(c.pack)
	return net
}

func bitsEqual(t *testing.T, what string, want, got *tensor.Tensor) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: presence differs (want nil %v, got nil %v)", what, want == nil, got == nil)
	}
	if want == nil {
		return
	}
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v vs %v", what, want.Shape(), got.Shape())
	}
	for i, v := range want.Data {
		if math.Float32bits(v) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: element %d differs: serial %v, sharded %v", what, i, v, got.Data[i])
		}
	}
}

func statesEqual(t *testing.T, what string, want, got *layers.LayerState) {
	t.Helper()
	bitsEqual(t, what+".U", want.U, got.U)
	bitsEqual(t, what+".O", want.DenseO(), got.DenseO())
	if (want.OPacked == nil) != (got.OPacked == nil) {
		t.Fatalf("%s: packed view presence differs", what)
	}
	if want.OPacked != nil {
		bitsEqual(t, what+".OPacked", want.OPacked.Unpack(), got.OPacked.Unpack())
	}
	if len(want.Sub) != len(got.Sub) {
		t.Fatalf("%s: %d sub-states vs %d", what, len(want.Sub), len(got.Sub))
	}
	for i := range want.Sub {
		statesEqual(t, fmt.Sprintf("%s.sub%d", what, i), want.Sub[i], got.Sub[i])
	}
}

func deltasEqual(t *testing.T, what string, want, got *layers.Delta) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: δ presence differs", what)
	}
	if want == nil {
		return
	}
	bitsEqual(t, what, want.D, got.D)
	if len(want.Sub) != len(got.Sub) {
		t.Fatalf("%s: %d sub-δ vs %d", what, len(want.Sub), len(got.Sub))
	}
	for i := range want.Sub {
		deltasEqual(t, fmt.Sprintf("%s.sub%d", what, i), want.Sub[i], got.Sub[i])
	}
}

func TestShardedStepBitIdenticalToSerial(t *testing.T) {
	for _, c := range shardCases() {
		t.Run(c.name, func(t *testing.T) {
			ref := buildShardNet(t, c, nil)
			for _, batch := range []int{1, 3, 8} {
				want := trainStep(t, ref, c, batch)
				nonzero := false
				for _, g := range want.grads {
					nonzero = nonzero || tensor.MaxAbs(g) > 0
				}
				if !nonzero {
					t.Fatalf("batch %d: serial step produced all-zero gradients", batch)
				}
				for _, width := range []int{1, 2, 3, 4} {
					pool := parallel.NewPool(width)
					net := buildShardNet(t, c, pool)
					got := trainStep(t, net, c, batch)
					pool.Close()
					tag := fmt.Sprintf("B=%d threads=%d", batch, width)
					for s := range want.records {
						for i := range want.records[s] {
							statesEqual(t, fmt.Sprintf("%s t=%d layer %d (%s)", tag, s, i, ref.Layers[i].Name()),
								want.records[s][i], got.records[s][i])
						}
					}
					for s := range want.deltas {
						for i := range want.deltas[s] {
							deltasEqual(t, fmt.Sprintf("%s δ step %d layer %d (%s)", tag, s, i, ref.Layers[i].Name()),
								want.deltas[s][i], got.deltas[s][i])
						}
					}
					for i, p := range ref.Params() {
						bitsEqual(t, fmt.Sprintf("%s grad %s", tag, p.Name), want.grads[i], got.grads[i])
					}
				}
			}
		})
	}
}

// TestShardedStepUsesOneRunPerStep pins the execution structure: with the
// batch sharded, a forward step over a network without sample-coupled
// layers is a single pool Run at full width.
func TestShardedStepUsesOneRunPerStep(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	net, err := models.Build("customnet", models.Options{InShape: []int{2, 8, 8}, Classes: 4, Width: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	net.SetPool(pool)
	x := tensor.New(4, 2, 8, 8)
	before := pool.Stats()
	net.ForwardStep(x, nil)
	after := pool.Stats()
	if runs, lanes := after.Runs-before.Runs, after.LanesUsed-before.LanesUsed; runs != 1 || lanes != 2 {
		t.Fatalf("B=4 forward step: %d runs over %d lanes, want 1 run over 2 lanes", runs, lanes)
	}
}

// TestLayerCallsShardedBitIdenticalToSerial covers the public per-layer
// calls (Forward/Backward and their packed forms, as LBP and the layer
// probes use them): each runs one sample-sharded run on the layer's pool and
// must equal the serial call bitwise.
func TestLayerCallsShardedBitIdenticalToSerial(t *testing.T) {
	for _, c := range shardCases() {
		t.Run(c.name, func(t *testing.T) {
			ref := buildShardNet(t, c, nil)
			pool := parallel.NewPool(3)
			defer pool.Close()
			net := buildShardNet(t, c, pool)
			const batch = 8
			run := func(n *layers.Network) ([]*layers.LayerState, []*tensor.Tensor, []*tensor.Tensor) {
				n.ZeroGrads()
				n.BeginIteration(tensor.NewRNG(3))
				defer n.EndIteration()
				x := tensor.New(append([]int{batch}, n.InShape...)...)
				rng := tensor.NewRNG(17)
				for i := range x.Data {
					if rng.Float32() < 0.4 {
						x.Data[i] = 1
					}
				}
				var prev []*layers.LayerState
				var states []*layers.LayerState
				for step := 0; step < 2; step++ {
					states = make([]*layers.LayerState, len(n.Layers))
					cur := x
					xp, _ := tensor.PackSpikes(x)
					for i, l := range n.Layers {
						var p *layers.LayerState
						if prev != nil {
							p = prev[i]
						}
						if pf, ok := l.(layers.PackedForward); ok && c.pack && xp != nil {
							states[i] = pf.ForwardPacked(cur, xp, p)
						} else {
							states[i] = l.Forward(cur, p)
						}
						cur, xp = states[i].O, states[i].OPacked
					}
					prev = states
				}
				var gradIns []*tensor.Tensor
				g := tensor.New(states[len(states)-1].OutShape()...)
				for i := range g.Data {
					g.Data[i] = float32(i%5)/5 - 0.3
				}
				for i := len(n.Layers) - 1; i >= 0; i-- {
					l := n.Layers[i]
					in := x
					var inP *tensor.PackedSpikes
					if i > 0 {
						in, inP = states[i-1].O, states[i-1].OPacked
					}
					var gi *tensor.Tensor
					if pb, ok := l.(layers.PackedBackward); ok && inP != nil {
						gi, _ = pb.BackwardPacked(inP, states[i], g, nil)
					} else {
						gi, _ = l.Backward(in, states[i], g, nil)
					}
					gradIns = append(gradIns, gi)
					g = gi
				}
				var grads []*tensor.Tensor
				for _, p := range n.Params() {
					grads = append(grads, p.G.Clone())
				}
				return states, gradIns, grads
			}
			ws, wg, wp := run(ref)
			gs, gg, gp := run(net)
			for i := range ws {
				statesEqual(t, fmt.Sprintf("layer %d (%s)", i, ref.Layers[i].Name()), ws[i], gs[i])
			}
			for i := range wg {
				bitsEqual(t, fmt.Sprintf("gradIn %d", i), wg[i], gg[i])
			}
			for i := range wp {
				bitsEqual(t, fmt.Sprintf("grad %d", i), wp[i], gp[i])
			}
		})
	}
}

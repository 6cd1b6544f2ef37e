package tensor

// Scratch holds per-lane kernel workspace (im2col columns today). Each layer
// owns one Scratch; the parallel kernels grow one buffer per pool lane on
// first use, so concurrent lanes of one kernel call never share a column
// buffer. A Scratch must not be shared between layer instances that can run
// concurrently — the serving worker replicas each build a private network
// (and therefore private Scratches) for exactly this reason.
//
// The zero value is ready to use; nil is accepted by every kernel and makes
// the call allocate a throwaway workspace.
type Scratch struct {
	lanes [][]float32
	words [][]uint64
}

// NewScratch returns an empty per-lane workspace.
func NewScratch() *Scratch { return &Scratch{} }

// Reserve grows the lane tables to at least n slots. It must run on the
// submitting goroutine before lanes are dispatched: the tables themselves
// are only ever resized here, so concurrent lane() calls touch disjoint
// elements. The kernels reserve their own pool's width; a caller that runs
// kernels inside lanes of an enclosing pool (on parallel.Lane pools, which
// report one lane) reserves the enclosing width up front.
func (s *Scratch) Reserve(n int) {
	for len(s.lanes) < n {
		s.lanes = append(s.lanes, nil)
	}
	for len(s.words) < n {
		s.words = append(s.words, nil)
	}
}

// lane returns lane's buffer with at least n elements, growing only that
// lane's slot. Contents are unspecified; kernels overwrite before reading.
func (s *Scratch) lane(lane, n int) []float32 {
	buf := s.lanes[lane]
	if len(buf) < n {
		buf = make([]float32, n)
		s.lanes[lane] = buf
	}
	return buf[:n]
}

// laneWords is lane for uint64 workspace — the packed im2col columns of the
// bit-packed convolution kernels.
func (s *Scratch) laneWords(lane, n int) []uint64 {
	buf := s.words[lane]
	if len(buf) < n {
		buf = make([]uint64, n)
		s.words[lane] = buf
	}
	return buf[:n]
}

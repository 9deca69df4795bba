package dfp

import (
	"sgxpreload/internal/mem"
)

// Alternative fault-history predictors for the ablation study. The
// paper's §4.1 positions its multiple-stream recognizer as the simple,
// general point in a larger design space ("heuristic schemes or even
// machine learning based schemes"); these implementations populate enough
// of that space to measure what the choice is worth:
//
//   - Stride generalizes the recognizer to constant non-unit strides.
//   - Markov is a correlation predictor over fault-to-fault transitions,
//     the classic alternative for pointer-chasing patterns.
//   - NextN is the no-history strawman.
//
// Like Predictor, each one only predicts: core.Predictor wraps every
// strategy in the one DFP-stop safety valve, so the valve composes with
// any of them unchanged.

// strideEntry tracks one candidate strided stream.
type strideEntry struct {
	last    mem.PageID
	stride  int64
	confirm bool // stride observed at least twice
	pend    mem.PageID
}

// Stride recognizes constant-stride fault sequences. A unit stride makes
// it behave like the paper's recognizer; non-unit strides catch
// column-major sweeps and records spanning several pages.
type Stride struct {
	cfg     Config
	entries []strideEntry
}

// NewStride builds a stride predictor; cfg.StreamListLen bounds the
// tracked streams and cfg.LoadLength the preload distance.
func NewStride(cfg Config) (*Stride, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Stride{cfg: cfg}, nil
}

// Name identifies the strategy.
func (*Stride) Name() string { return "stride" }

// OnFault observes npn and predicts the continuation of a recognized
// strided stream.
func (p *Stride) OnFault(npn mem.PageID) []mem.PageID {
	for i := range p.entries {
		e := &p.entries[i]
		if !e.matches(npn) {
			continue
		}
		e.last = npn
		out := make([]mem.PageID, 0, p.cfg.LoadLength)
		cur := int64(npn)
		for j := 0; j < p.cfg.LoadLength; j++ {
			cur += e.stride
			if cur < 0 {
				break
			}
			out = append(out, mem.PageID(cur))
		}
		if len(out) > 0 {
			e.pend = out[len(out)-1]
		}
		p.moveToHead(i)
		return out
	}
	p.insert(strideEntry{last: npn})
	return nil
}

// matches reports whether a fault on npn extends the candidate stream,
// fixing the stride on the second fault. This mirrors the multistream
// recognizer's rule (second adjacent fault confirms) generalized to any
// small stride — which also means it confirms more junk on irregular
// histories, the cost side of the ablation.
func (e *strideEntry) matches(npn mem.PageID) bool {
	delta := int64(npn) - int64(e.last)
	if delta == 0 {
		return false
	}
	if !e.confirm {
		if abs64(delta) > 64 {
			return false
		}
		e.stride = delta
		e.confirm = true
		return true
	}
	if delta == e.stride {
		return true
	}
	// In-window catch-up fault between the tail and the predicted end.
	if e.stride > 0 {
		return int64(npn) > int64(e.last) && int64(npn) <= int64(e.pend)+e.stride
	}
	return int64(npn) < int64(e.last) && int64(npn) >= int64(e.pend)+e.stride
}

func (p *Stride) moveToHead(i int) {
	if i == 0 {
		return
	}
	e := p.entries[i]
	copy(p.entries[1:i+1], p.entries[:i])
	p.entries[0] = e
}

func (p *Stride) insert(e strideEntry) {
	if len(p.entries) < p.cfg.StreamListLen {
		p.entries = append(p.entries, strideEntry{})
	}
	copy(p.entries[1:], p.entries[:len(p.entries)-1])
	p.entries[0] = e
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Markov is a first-order correlation predictor: for every faulting page
// it remembers which pages faulted next, and on a repeat fault preloads
// the remembered successors. Effective when the same pointer chains are
// walked repeatedly; useless on first-touch streams.
type Markov struct {
	cfg Config
	// successors maps a page to its most recent distinct successors,
	// most recent first.
	successors map[mem.PageID][]mem.PageID
	order      []mem.PageID // FIFO of table keys for capacity eviction
	capacity   int
	prev       mem.PageID
	havePrev   bool
}

// NewMarkov builds a correlation predictor. The transition table holds
// 64x cfg.StreamListLen source pages (the paper's list length is a
// deliberately tiny structure; a correlation table needs more state to
// function at all — that asymmetry is part of the ablation's point).
func NewMarkov(cfg Config) (*Markov, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Markov{
		cfg:        cfg,
		successors: make(map[mem.PageID][]mem.PageID),
		capacity:   cfg.StreamListLen * 64,
	}, nil
}

// Name identifies the strategy.
func (*Markov) Name() string { return "markov" }

// OnFault records the prev→npn transition and predicts npn's remembered
// successors.
func (p *Markov) OnFault(npn mem.PageID) []mem.PageID {
	if p.havePrev && p.prev != npn {
		p.record(p.prev, npn)
	}
	p.prev, p.havePrev = npn, true

	succ := p.successors[npn]
	if len(succ) == 0 {
		return nil
	}
	n := p.cfg.LoadLength
	if n > len(succ) {
		n = len(succ)
	}
	out := make([]mem.PageID, n)
	copy(out, succ[:n])
	return out
}

// record notes a transition, keeping the most recent distinct successors
// first and bounding the table.
func (p *Markov) record(from, to mem.PageID) {
	succ := p.successors[from]
	for i, s := range succ {
		if s == to {
			copy(succ[1:i+1], succ[:i])
			succ[0] = to
			return
		}
	}
	if len(succ) >= 4 {
		succ = succ[:3]
	}
	p.successors[from] = append([]mem.PageID{to}, succ...)
	if len(succ) == 0 {
		// New key: enforce capacity FIFO.
		p.order = append(p.order, from)
		if len(p.order) > p.capacity {
			evict := p.order[0]
			p.order = p.order[1:]
			delete(p.successors, evict)
		}
	}
}

// NextN preloads the N pages after every fault, unconditionally.
type NextN struct {
	cfg Config
}

// NewNextN builds the no-history strawman.
func NewNextN(cfg Config) (*NextN, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &NextN{cfg: cfg}, nil
}

// Name identifies the strategy.
func (*NextN) Name() string { return "nextn" }

// OnFault predicts npn+1..npn+LoadLength on every fault.
func (p *NextN) OnFault(npn mem.PageID) []mem.PageID {
	out := make([]mem.PageID, 0, p.cfg.LoadLength)
	cur := npn
	for i := 0; i < p.cfg.LoadLength; i++ {
		next := successor(cur, Forward)
		if next == mem.NoPage {
			break
		}
		cur = next
		out = append(out, cur)
	}
	return out
}

// Name identifies the paper's strategy in reports.
func (*Predictor) Name() string { return "multistream" }

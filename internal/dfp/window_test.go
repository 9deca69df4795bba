package dfp

import (
	"fmt"
	"slices"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/rng"
)

// refPredictor is the stream list as it was before the window prefilter:
// OnFault runs matches on every entry. It is kept verbatim as the oracle
// for TestStreamWindowDifferential.
type refPredictor struct {
	cfg        Config
	streams    []entry
	hits       uint64
	misses     uint64
	nextStream uint64
	hook       obs.Hook
	scratch    []mem.PageID
}

func (p *refPredictor) OnFault(npn mem.PageID) []mem.PageID {
	for i := range p.streams {
		e := &p.streams[i]
		dir, ok := e.matches(npn, p.cfg.Backward)
		if !ok {
			continue
		}
		p.hits++
		e.hits++
		e.stpn = npn
		e.dir = dir
		pend, out := p.predict(npn, dir)
		e.pend = pend
		if p.hook != nil {
			p.hook.Emit(obs.Event{Kind: obs.KindStreamHit, Page: npn,
				Batch: e.id, V1: uint64(len(out))})
		}
		p.moveToHead(i)
		return out
	}
	p.misses++
	p.nextStream++
	if p.hook != nil {
		p.hook.Emit(obs.Event{Kind: obs.KindStreamStart, Page: npn, Batch: p.nextStream})
	}
	p.insert(entry{stpn: npn, pend: npn, id: p.nextStream})
	return nil
}

func (p *refPredictor) predict(npn mem.PageID, dir Direction) (mem.PageID, []mem.PageID) {
	out := p.scratch[:0]
	cur := npn
	for i := 0; i < p.cfg.LoadLength; i++ {
		next := successor(cur, dir)
		if next == mem.NoPage {
			break
		}
		cur = next
		out = append(out, cur)
	}
	p.scratch = out
	return cur, out
}

func (p *refPredictor) moveToHead(i int) {
	if i == 0 {
		return
	}
	e := p.streams[i]
	copy(p.streams[1:i+1], p.streams[:i])
	p.streams[0] = e
}

func (p *refPredictor) insert(e entry) {
	if len(p.streams) < p.cfg.StreamListLen {
		p.streams = append(p.streams, entry{})
	} else if p.hook != nil {
		tail := p.streams[len(p.streams)-1]
		p.hook.Emit(obs.Event{Kind: obs.KindStreamEnd, Batch: tail.id, V1: tail.hits})
	}
	copy(p.streams[1:], p.streams[:len(p.streams)-1])
	p.streams[0] = e
}

func (p *refPredictor) Tails() []mem.PageID {
	out := make([]mem.PageID, len(p.streams))
	for i, e := range p.streams {
		out[i] = e.stpn
	}
	return out
}

// checkWindows asserts that p's window slice mirrors its stream list and
// that every page matches accepts for an entry lies inside that entry's
// window. matches only accepts pages between the tail and one past the
// predicted end (or next to the tail before the direction is fixed), so
// probing from 3 below the lower of stpn and pend to 3 above the higher,
// with wrap-around, covers every page it can accept.
func checkWindows(t *testing.T, p *Predictor) {
	t.Helper()
	if len(p.windows) != len(p.streams) {
		t.Fatalf("%d windows for %d streams", len(p.windows), len(p.streams))
	}
	for i := range p.streams {
		e := &p.streams[i]
		w := windowOf(e)
		if p.windows[i] != w {
			t.Fatalf("entry %d %+v holds window %+v, want %+v", i, *e, p.windows[i], w)
		}
		lo, hi := min(e.stpn, e.pend)-3, max(e.stpn, e.pend)+3
		for npn := lo; ; npn++ {
			if _, ok := e.matches(npn, p.cfg.Backward); ok && !w.contains(npn) {
				t.Fatalf("entry %+v matches page %d outside its window [%d, %d]", *e, npn, w.lo, w.hi)
			}
			if npn == hi {
				break
			}
		}
	}
}

// TestStreamWindowDifferential runs the window-filtered OnFault against
// refPredictor over seeded random fault sequences: sequential runs in both
// directions that advance by up to LoadLength+1 pages (so faults land
// inside and just past the predicted window), repeats of the last fault,
// uniformly random pages, and the address-space edges 0, 1, NoPage-2,
// NoPage-1 and the NoPage sentinel, with runs started next to them. Every
// step must give the same prediction, Tails(), hit and miss counts and
// stream events, with Backward on and off and StreamListLen 1, 2, 30 and
// 60.
func TestStreamWindowDifferential(t *testing.T) {
	const (
		seeds = 40
		steps = 3000
	)
	edges := []mem.PageID{0, 1, mem.NoPage - 2, mem.NoPage - 1, mem.NoPage}
	for _, backward := range []bool{false, true} {
		for _, listLen := range []int{1, 2, 30, 60} {
			t.Run(fmt.Sprintf("backward=%v/len=%d", backward, listLen), func(t *testing.T) {
				var hits, edgeHits uint64
				for seed := uint64(1); seed <= seeds; seed++ {
					s := seed*1009 + uint64(listLen)*31
					if backward {
						s += 7
					}
					r := rng.New(s)
					cfg := DefaultConfig()
					cfg.StreamListLen = listLen
					cfg.Backward = backward
					cfg.LoadLength = []int{1, 4, 8}[seed%3]
					fast, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref := &refPredictor{cfg: cfg}
					fastRec, refRec := obs.NewRecorder(), obs.NewRecorder()
					fast.SetHook(fastRec)
					ref.hook = refRec

					// Run cursors: a position and a direction each.
					cursors := make([]mem.PageID, 4)
					dirs := make([]Direction, len(cursors))
					reseat := func(c int) {
						dirs[c] = Forward
						if r.Intn(2) == 0 {
							dirs[c] = Backward
						}
						switch r.Intn(3) {
						case 0: // next to an edge
							cursors[c] = edges[r.Intn(len(edges)-1)] + mem.PageID(r.Intn(7)) - 3
							if cursors[c] == mem.NoPage {
								cursors[c] = 0
							}
						default:
							cursors[c] = mem.PageID(r.Intn(1 << 16))
						}
					}
					for c := range cursors {
						reseat(c)
					}
					last := mem.PageID(0)
					for i := 0; i < steps; i++ {
						var npn mem.PageID
						switch k := r.Intn(10); {
						case k < 6: // advance a run by 1..LoadLength+1 pages
							c := r.Intn(len(cursors))
							d := mem.PageID(r.Intn(cfg.LoadLength+1) + 1)
							next := cursors[c] + d
							if dirs[c] == Backward {
								next = cursors[c] - d
							}
							// Past an edge the run ends; start another.
							if (dirs[c] == Forward && next < cursors[c]) ||
								(dirs[c] == Backward && next > cursors[c]) || next == mem.NoPage {
								reseat(c)
								next = cursors[c]
							}
							cursors[c] = next
							npn = next
						case k == 6:
							npn = last
						case k == 7:
							npn = edges[r.Intn(len(edges))]
						default:
							npn = mem.PageID(r.Uint64())
						}
						last = npn
						fh := fast.Hits()
						fastOut, refOut := fast.OnFault(npn), ref.OnFault(npn)
						if !slices.Equal(fastOut, refOut) || (fastOut == nil) != (refOut == nil) {
							t.Fatalf("seed %d step %d: OnFault(%d) = %v, reference %v", seed, i, npn, fastOut, refOut)
						}
						if !slices.Equal(fast.Tails(), ref.Tails()) {
							t.Fatalf("seed %d step %d: Tails %v, reference %v", seed, i, fast.Tails(), ref.Tails())
						}
						if fast.Hits() != ref.hits || fast.Misses() != ref.misses {
							t.Fatalf("seed %d step %d: hits/misses %d/%d, reference %d/%d",
								seed, i, fast.Hits(), fast.Misses(), ref.hits, ref.misses)
						}
						if !slices.Equal(fastRec.Events(), refRec.Events()) {
							t.Fatalf("seed %d step %d: stream events diverge", seed, i)
						}
						if fast.Hits() > fh && (npn <= 1 || npn >= mem.NoPage-2) {
							edgeHits++
						}
						checkWindows(t, fast)
						fastRec.Reset()
						refRec.Reset()
					}
					hits += fast.Hits()
				}
				// The sequences must exercise the filter's pass side, at
				// the edges too, not only its rejections.
				if hits == 0 || edgeHits == 0 {
					t.Fatalf("%d hits, %d at the address-space edges; want both > 0", hits, edgeHits)
				}
				t.Logf("%d stream hits, %d of them at the address-space edges", hits, edgeHits)
			})
		}
	}
}

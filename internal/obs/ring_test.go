package obs

import (
	"sync"
	"testing"

	"sgxpreload/internal/mem"
)

func TestRingRetainsNewest(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Emit(Event{T: uint64(i), Kind: KindScan})
	}
	if s := r.Stats(); s.Total != 10 || s.Retained != 4 || s.Dropped != 6 || s.LastT != 10 {
		t.Fatalf("stats = %+v, want total 10, retained 4, dropped 6, last 10", s)
	}
	window, first := r.Snapshot()
	if len(window) != 4 || first != 7 {
		t.Fatalf("window %d events from seq %d, want 4 from 7", len(window), first)
	}
	for i, e := range window {
		if e.T != uint64(7+i) {
			t.Fatalf("window[%d].T = %d, want %d", i, e.T, 7+i)
		}
	}
}

func TestRingSince(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 5; i++ {
		r.Emit(Event{T: uint64(i), Kind: KindScan})
	}
	events, first := r.Since(3)
	if len(events) != 2 || first != 4 {
		t.Fatalf("Since(3) = %d events from %d, want 2 from 4", len(events), first)
	}
	if events, _ := r.Since(5); events != nil {
		t.Fatalf("Since(newest) returned %d events", len(events))
	}
	if events, _ := r.Since(99); events != nil {
		t.Fatalf("Since(past end) returned %d events", len(events))
	}
	// A cursor that slid out of the window restarts at the oldest
	// retained event, and the gap is visible from the first sequence.
	small := NewRing(2)
	for i := 1; i <= 6; i++ {
		small.Emit(Event{T: uint64(i), Kind: KindScan})
	}
	events, first = small.Since(1)
	if len(events) != 2 || first != 5 {
		t.Fatalf("Since over a slid window = %d events from %d, want 2 from 5", len(events), first)
	}
}

func TestRingStats(t *testing.T) {
	r := NewRing(16)
	r.Emit(Event{T: 10, Kind: KindFaultBegin, Page: 1})
	r.Emit(Event{T: 20, Kind: KindFaultEnd, Page: 1, V1: 10})
	r.Emit(Event{T: 30, Kind: KindLoadStart, Page: 2, V1: 95}) // completion beyond T
	s := r.Stats()
	if s.Total != 3 || s.Retained != 3 || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.LastT != 95 {
		t.Fatalf("LastT = %d, want completion cycle 95", s.LastT)
	}
	if s.Counts["fault_begin"] != 1 || s.Counts["fault_end"] != 1 || s.Counts["load_start"] != 1 {
		t.Fatalf("counts = %v", s.Counts)
	}
	if _, ok := s.Counts["evict"]; ok {
		t.Fatal("zero kind present in counts")
	}
}

func TestRingDefaultCapacity(t *testing.T) {
	r := NewRing(0)
	if len(r.buf) != DefaultRingCapacity {
		t.Fatalf("NewRing(0) capacity %d, want %d", len(r.buf), DefaultRingCapacity)
	}
}

// TestRingConcurrentEmitAndRead drives emitters and readers in parallel;
// under -race this is the ring's safety proof. Readers check window
// self-consistency: sequence numbers are contiguous and Ts monotone
// (emitters write monotone T per their own stripe of 1000s).
func TestRingConcurrentEmitAndRead(t *testing.T) {
	r := NewRing(64)
	stop := make(chan struct{})
	var emitters, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		emitters.Add(1)
		go func(base uint64) {
			defer emitters.Done()
			for i := uint64(0); i < 5000; i++ {
				r.Emit(Event{T: base + i, Kind: KindScan, Page: mem.PageID(i)})
			}
		}(uint64(w) * 1_000_000)
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var cursor uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				events, first := r.Since(cursor)
				if len(events) > 0 {
					cursor = first + uint64(len(events)) - 1
				}
				r.Stats()
				r.Snapshot()
			}
		}()
	}
	emitters.Wait()
	close(stop)
	readers.Wait()
	if s := r.Stats(); s.Total != 10000 || s.Counts["scan"] != 10000 {
		t.Fatalf("stats = total %d, %d scans; want 10000 of each", s.Total, s.Counts["scan"])
	}
}

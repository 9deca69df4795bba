package mem

// Stream is a pull-based source of accesses: the incremental engine's
// input contract. Next returns the next access of the trace and true, or
// a zero Access and false when the trace is exhausted. A Stream may be
// unbounded — the engine looks one access ahead, and holds no more than
// a chunk the stream already had in memory, so a stream that never
// returns false drives an arbitrarily long run in O(1) memory.
//
// Implementations must be deterministic and single-consumer: the engine
// pulls from exactly one goroutine and never rewinds. Next is the whole
// contract; a stream that already holds its next accesses in memory may
// also implement Chunker, and the engine then reads them in chunks.
type Stream interface {
	Next() (Access, bool)
}

// Chunker is optionally implemented by streams whose next accesses
// already sit in memory: a materialized trace (SliceStream), a generator
// coroutine's current chunk, a Limit over either. Chunk returns and
// consumes up to max (> 0) next accesses, the same accesses Next would
// have returned one by one; an empty result means the stream is
// exhausted. The slice is read-only and stays valid only until the next
// call on the stream (Next, Chunk or Close), which may overwrite it.
// Next and Chunk may be interleaved freely.
type Chunker interface {
	Chunk(max int) []Access
}

// Closer is optionally implemented by streams that hold resources (the
// workload package's generator coroutines do). The engine closes such
// streams when a run ends early; draining a stream to exhaustion
// releases it without an explicit Close.
type Closer interface {
	Close()
}

// Close closes s when it implements Closer, and is a no-op otherwise. s
// is typically a Stream; it is untyped so that streams over another
// access type (the public API's) release through it too.
func Close(s any) {
	if c, ok := s.(Closer); ok {
		c.Close()
	}
}

// StreamFunc adapts an ordinary function to the Stream interface.
type StreamFunc func() (Access, bool)

// Next calls f.
func (f StreamFunc) Next() (Access, bool) { return f() }

// sliceStream replays a materialized trace; the adapter that keeps every
// []Access caller working against the streaming engine.
type sliceStream struct {
	trace []Access
	i     int
}

// SliceStream returns a Stream replaying trace in order. It is a
// Chunker whose Chunk hands over the rest of the trace in place, so a
// slice-fed engine run walks the trace without a call per access.
func SliceStream(trace []Access) Stream { return &sliceStream{trace: trace} }

func (s *sliceStream) Next() (Access, bool) {
	if s.i >= len(s.trace) {
		return Access{}, false
	}
	a := s.trace[s.i]
	s.i++
	return a, true
}

// Chunk returns up to max of the remaining accesses, capped so that an
// append to it cannot write into the trace.
func (s *sliceStream) Chunk(max int) []Access {
	c := s.trace[s.i:]
	if len(c) > max {
		c = c[:max]
	}
	s.i += len(c)
	return c[:len(c):len(c)]
}

// Collect drains s into a slice — the inverse adapter, for tooling that
// needs the whole trace (profilers, trace files, tests).
func Collect(s Stream) []Access {
	var out []Access
	for {
		a, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// Limit returns a Stream that passes through at most n accesses of s —
// the standard way to bound an unbounded generator (a CLI access cap, a
// smoke test's trace length). Limit releases s as soon as it reports the
// end, at the cap or at s's own end, so a generator coroutine under it
// does not outlive the run; Close releases s early, and s is released at
// most once. A Closer s therefore cannot be read past the cap. When s is
// a Chunker, so is the limited stream: its Chunk asks s for no more than
// the accesses left under the cap, so s is never consumed past it.
func Limit(s Stream, n uint64) Stream {
	if c, ok := s.(Chunker); ok {
		return &chunkLimit{limitStream: limitStream{src: s, left: n}, ck: c}
	}
	return &limitStream{src: s, left: n}
}

type limitStream struct {
	src  Stream // nil once released
	left uint64
}

func (l *limitStream) Next() (Access, bool) {
	if l.left > 0 {
		if a, ok := l.src.Next(); ok {
			l.left--
			return a, true
		}
	}
	l.Close()
	return Access{}, false
}

// Close releases the underlying stream when it holds resources.
func (l *limitStream) Close() {
	Close(l.src)
	l.src, l.left = nil, 0
}

// chunkLimit is Limit over a Chunker.
type chunkLimit struct {
	limitStream
	ck Chunker // the source as a Chunker; read only while left > 0
}

func (l *chunkLimit) Chunk(max int) []Access {
	if l.left > 0 {
		if uint64(max) > l.left {
			max = int(l.left)
		}
		if c := l.ck.Chunk(max); len(c) > 0 {
			l.left -= uint64(len(c))
			return c
		}
	}
	l.Close()
	return nil
}

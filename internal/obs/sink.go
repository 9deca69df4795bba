package obs

import (
	"io"
	"os"
)

// StreamSink is the O(1)-memory trace hook: it encodes each event as it
// is emitted and ships full buffers to a background writer goroutine,
// so a traced run holds two fixed-size buffers instead of the whole
// timeline. This is what makes `sgxsim -trace` viable on unbounded
// runs (`-repeat 0`) and keeps per-host fleet tracing from
// accumulating millions of Events in memory.
//
// Concurrency contract: Emit must be called from one goroutine at a
// time (the engine's), exactly like Recorder. The sink double-buffers —
// while the writer goroutine drains one buffer to the underlying
// writer, the engine fills the other — so the engine only blocks on I/O
// when it outruns the disk on both buffers. Buffers are handed over in
// emission order through one channel, so the file's event order is the
// emission order regardless of scheduling.
//
// Write errors do not surface at Emit (the engine is not allowed to
// fail mid-step on observer I/O); the first error is latched, further
// output is discarded, and Close reports it. Close flushes the partial
// buffer, waits for the writer goroutine to drain everything it was
// handed, closes the underlying file when the sink opened it, and is
// the deterministic end of the trace: after Close returns, the file
// holds every emitted event.
type StreamSink struct {
	enc    func([]byte, Event) []byte
	buf    []byte      // active buffer, filled by Emit
	out    chan []byte // full buffers, in emission order
	free   chan []byte // drained buffers coming back
	done   chan struct{}
	w      io.Writer
	c      io.Closer // non-nil when the sink owns the file
	werr   error     // writer goroutine's first error; read after done
	events int
	closed bool
}

// sinkBufBytes is the flush threshold. Two buffers of this size bound
// the sink's memory; one trace line is ~100 bytes, so each handover
// amortizes the channel round trip over ~600 events.
const sinkBufBytes = 64 << 10

// NewStreamSink returns a sink streaming the given format to w, with
// the schema header already encoded. The caller must Close it to flush
// and observe write errors.
func NewStreamSink(w io.Writer, f Format) *StreamSink {
	s := &StreamSink{
		w:    w,
		out:  make(chan []byte, 2),
		free: make(chan []byte, 2),
		done: make(chan struct{}),
	}
	// Event lines are bounded (~120 bytes), so the slack past the flush
	// threshold keeps Emit from ever reallocating a buffer.
	s.buf = make([]byte, 0, sinkBufBytes+512)
	s.free <- make([]byte, 0, sinkBufBytes+512)
	var preamble string
	preamble, s.enc = f.encoding()
	s.buf = append(s.buf, preamble...)
	go func() {
		defer close(s.done)
		for b := range s.out {
			if s.werr == nil && len(b) > 0 {
				if _, err := s.w.Write(b); err != nil {
					s.werr = err
				}
			}
			s.free <- b[:0]
		}
	}()
	return s
}

// NewStreamSinkFile creates path and returns a sink streaming to it in
// the format FormatForPath picks from the extension. Close closes the
// file.
func NewStreamSinkFile(path string) (*StreamSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := NewStreamSink(f, FormatForPath(path))
	s.c = f
	return s, nil
}

// Emit implements Hook: encode into the active buffer, hand the buffer
// to the writer when full.
func (s *StreamSink) Emit(e Event) {
	s.events++
	s.buf = s.enc(s.buf, e)
	if len(s.buf) >= sinkBufBytes {
		s.out <- s.buf
		s.buf = <-s.free
	}
}

// Events returns the number of events emitted so far. Like Emit, it is
// only meaningful from the emitting goroutine (or after Close).
func (s *StreamSink) Events() int { return s.events }

// Close flushes the remaining buffer, waits for the background writer
// to drain, closes the file when the sink owns one, and returns the
// first write or close error. Further Closes are no-ops returning nil;
// Emit after Close panics (send on closed channel) by design.
func (s *StreamSink) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if len(s.buf) > 0 {
		s.out <- s.buf
	}
	close(s.out)
	<-s.done
	err := s.werr
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

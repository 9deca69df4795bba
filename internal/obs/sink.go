package obs

import (
	"io"
	"os"
)

// StreamSink is the O(1)-memory trace hook: it encodes each event into
// one fixed-size buffer as it is emitted and writes the buffer out
// whenever it fills, so a traced run holds one buffer instead of the
// whole timeline. This is what makes `sgxsim -trace` viable on
// unbounded runs (`-repeat 0`) and keeps per-host fleet tracing from
// accumulating millions of Events in memory. WriteJSONL and WriteCSV
// are this sink over a slice, so every trace byte comes from one loop.
//
// Concurrency contract: Emit must be called from one goroutine at a
// time (the engine's), exactly like Recorder. The sink starts no
// goroutine: writes happen on the emitting goroutine, in emission
// order.
//
// Write errors do not surface at Emit (the engine is not allowed to
// fail mid-step on observer I/O); the first error is latched, further
// output is discarded, and Close reports it. Close writes the partial
// buffer, closes the underlying file when the sink opened it, and is
// the deterministic end of the trace: after Close returns, the file
// holds every emitted event.
type StreamSink struct {
	enc    func([]byte, Event) []byte // nil once closed
	buf    []byte
	w      io.Writer
	c      io.Closer // non-nil when the sink owns the file
	err    error     // first write error
	events int
}

// sinkBufBytes is the flush threshold: one trace line is ~100 bytes,
// so each write carries ~600 events.
const sinkBufBytes = 64 << 10

// NewStreamSink returns a sink streaming the given format to w, with
// the schema header already encoded. The caller must Close it to flush
// and observe write errors.
func NewStreamSink(w io.Writer, f Format) *StreamSink {
	preamble, enc := f.encoding()
	// Event lines are bounded (~120 bytes), so the slack past the flush
	// threshold keeps Emit from ever reallocating the buffer.
	buf := make([]byte, 0, sinkBufBytes+512)
	return &StreamSink{enc: enc, buf: append(buf, preamble...), w: w}
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

// Emit implements Hook: encode into the buffer, write it out when full.
// Emit after Close panics (the encoder is gone) by design.
func (s *StreamSink) Emit(e Event) {
	s.events++
	s.buf = s.enc(s.buf, e)
	if len(s.buf) >= sinkBufBytes {
		s.flush()
	}
}

// flush writes the buffer unless an earlier write failed, latching the
// first error, and empties it either way.
func (s *StreamSink) flush() {
	if s.err == nil {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// Events returns the number of events emitted so far.
func (s *StreamSink) Events() int { return s.events }

// Close writes the remaining buffer, closes the file when the sink owns
// one, and returns the first write or close error. Further Closes are
// no-ops returning nil.
func (s *StreamSink) Close() error {
	if s.enc == nil {
		return nil
	}
	s.enc = nil
	s.flush()
	err := s.err
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

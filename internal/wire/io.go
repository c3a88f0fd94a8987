package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/tuple"
)

// Writer frames and buffers outbound frames. Frames accumulate in the
// bufio layer until Flush, so a burst of TUPLE frames costs one syscall;
// punctuation-bearing writers should flush immediately after a PUNCT or
// EOS — a bound that sits in a socket buffer delays exactly the
// reactivation it promises. Writer is not safe for concurrent use; callers
// serialize (the client makes every write, its flusher's included, under
// its connection mutex).
type Writer struct {
	bw  *bufio.Writer
	buf []byte // reusable payload scratch

	frames uint64
	bytes  uint64
}

// NewWriter returns a framing writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 32*1024)}
}

// WriteMagic writes the binary-session preamble; the opener of a connection
// calls it once before the first frame.
func (w *Writer) WriteMagic() error {
	_, err := w.bw.Write(Magic[:])
	w.bytes += uint64(len(Magic))
	return err
}

// WriteFrame appends one frame to the output buffer.
func (w *Writer) WriteFrame(f Frame) error {
	w.buf = f.encode(w.buf[:0])
	if len(w.buf) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds MaxFrame", len(w.buf))
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(w.buf)))
	hdr[4] = byte(f.Type())
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.buf); err != nil {
		return err
	}
	w.frames++
	w.bytes += uint64(len(hdr)) + uint64(len(w.buf))
	return nil
}

// Flush pushes buffered frames to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Frames reports the number of frames written.
func (w *Writer) Frames() uint64 { return w.frames }

// Bytes reports the number of bytes written (including framing overhead).
func (w *Writer) Bytes() uint64 { return w.bytes }

// Reader deframes and decodes inbound frames. The payload buffer and the
// batch slice of TUPLES frames are reused across frames: a decoded frame
// never aliases the payload, but a Tuples frame's Batch is valid only until
// the next call to Next (StreamSink.IngestBatch takes the tuples, not the
// slice). Decoded tuples come sized from the reader's magazine, which hands
// out released tuples first and otherwise carves tuple and value array from
// slabs of about tuple.MagazineSize, so a steady stream of TUPLES frames
// costs two slab allocations per MagazineSize tuples plus one for the frame
// value, whether or not anything is ever released. Reader is not safe for
// concurrent use.
type Reader struct {
	br    *bufio.Reader
	buf   []byte
	batch []*tuple.Tuple
	mag   tuple.Magazine

	frames uint64
	bytes  uint64
}

// NewReader returns a deframing reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 32*1024)}
}

// NewReaderBuffered wraps an existing bufio.Reader (the server's magic-peek
// path already holds one; re-wrapping would lose the peeked bytes).
func NewReaderBuffered(br *bufio.Reader) *Reader { return &Reader{br: br} }

// ReadMagic consumes and verifies the binary-session preamble.
func (r *Reader) ReadMagic() error {
	var m [4]byte
	if _, err := io.ReadFull(r.br, m[:]); err != nil {
		return err
	}
	r.bytes += uint64(len(m))
	if m != Magic {
		return fmt.Errorf("wire: bad magic %x", m)
	}
	return nil
}

// Next reads and decodes one frame. It returns io.EOF on a clean
// between-frames end of stream and io.ErrUnexpectedEOF on a mid-frame cut.
func (r *Reader) Next() (Frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		// ReadFull yields io.EOF only when zero header bytes arrived — a
		// clean between-frames close; a partial header is ErrUnexpectedEOF.
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame payload %d exceeds MaxFrame", n)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	r.frames++
	r.bytes += uint64(len(hdr)) + uint64(n)
	f, err := decodeFrame(FrameType(hdr[4]), r.buf, &r.mag, r.batch)
	if ts, ok := f.(Tuples); ok {
		r.batch = ts.Batch // keep what the decode grew
	}
	return f, err
}

// Release hands a tuple this reader decoded back to its magazine, to be the
// next tuple decoded. Only the goroutine that calls Next may call it, and
// only for a tuple nothing else refers to any more: one from a frame the
// caller dropped (an unbound stream id, a suppressed resend), or one whose
// values the caller has finished reading. A tuple passed on, to a sink or a
// queue, belongs to whoever received it.
func (r *Reader) Release(t *tuple.Tuple) { r.mag.Put(t) }

// Frames reports the number of frames read.
func (r *Reader) Frames() uint64 { return r.frames }

// Bytes reports the number of bytes read (including framing overhead).
func (r *Reader) Bytes() uint64 { return r.bytes }

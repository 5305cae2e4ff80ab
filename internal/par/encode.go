package par

import (
	"fmt"
	"io"
	"runtime"
	"sync"
)

// EncodeChunk is how many records Encode hands to one encoding job.
// Chunk boundaries depend on the record index alone, so what Encode
// writes never depends on GOMAXPROCS or on which worker encoded which
// chunk.
const EncodeChunk = 256

// WriteError is what Encode returns when the destination writer fails:
// Index is the first record of the chunk whose write failed.
type WriteError struct {
	Index int
	Err   error
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("par: write from record %d: %v", e.Index, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

// Encode encodes records 0..n-1 on the shared pool and writes them to w
// in index order. enc appends the encoding of records lo..hi-1 to dst
// and returns the grown buffer. The records reach enc in chunks of
// EncodeChunk, each chunk's bytes reach w in one Write, and the chunks
// are written strictly in index order, so w receives exactly the bytes
// of one serial enc(dst, 0, n).
//
// A failing enc returns, with its error, dst holding the records before
// the failing one: Encode writes that prefix and returns the error as
// it is, so w sees what a serial record-by-record loop would have
// written, and the lowest failing record wins. A failing w stops the job
// with a *WriteError. Nothing after the first failure is written, and no
// goroutine outlives the call. A panic in enc or w is re-raised on the
// caller's goroutine as a *PanicError naming the first record of its
// chunk.
//
// Like Map, Encode runs on the caller's goroutine and on helpers
// borrowed from the shared pool. At most two chunks per worker (and
// maxSlots in all) are in flight, in buffers reused across calls.
func Encode(w io.Writer, n int, enc func(dst []byte, lo, hi int) ([]byte, error)) error {
	if n <= 0 {
		return nil
	}
	chunks := (n + EncodeChunk - 1) / EncodeChunk
	workers := min(runtime.GOMAXPROCS(0), chunks)
	e := getEncoder()
	e.start(w, n, chunks, min(2*workers, maxSlots), enc)
	fanOut(workers, e.run)
	err := e.err
	putEncoder(e)
	if p, ok := err.(*PanicError); ok {
		panic(p)
	}
	return err
}

// encoder is the state of one Encode call. Chunk i is encoded into slot
// i % len(slots) once chunk i-len(slots) has been written, and whichever
// worker finds the next chunk to write done writes it and every done
// chunk after it.
type encoder struct {
	mu    sync.Mutex
	freed sync.Cond // broadcast when a slot frees or the job fails

	w   io.Writer
	enc func(dst []byte, lo, hi int) ([]byte, error)
	n   int

	end     int   // chunks to write: all, or up to the first failing one
	hint    int   // the longest chunk this encoder has encoded, capped at maxKeep between calls
	claim   int   // next chunk to encode
	written int   // next chunk to write
	writing bool  // a worker is writing chunks out
	err     error // the first failure in chunk order; stops the job
	slots   []encodeSlot
}

// encodeSlot holds one chunk between its encoding and its write.
type encodeSlot struct {
	buf  []byte
	err  error // the chunk's encoding error
	done bool  // encoded, not yet written
}

// Chunk buffers are recycled with the encoder that holds them: at most
// maxSlots per encoder and maxIdle idle encoders are kept, and a buffer
// that grew past maxKeep is dropped rather than kept, so the idle
// encoders hold at most maxIdle*maxSlots*maxKeep bytes. The free list
// survives garbage collection (a sync.Pool would not, and hands an
// object back only on the P that put it there), so repeated exports
// encode into the same few buffers.
const (
	maxSlots = 16
	maxIdle  = 4
	maxKeep  = 256 << 10
)

var idle struct {
	sync.Mutex
	list []*encoder
}

func getEncoder() *encoder {
	idle.Lock()
	defer idle.Unlock()
	if n := len(idle.list); n > 0 {
		e := idle.list[n-1]
		idle.list = idle.list[:n-1]
		return e
	}
	e := new(encoder)
	e.freed.L = &e.mu
	return e
}

// putEncoder drops the call's references and errors and keeps the
// encoder, with its buffers, for the next call if there is room.
func putEncoder(e *encoder) {
	e.w, e.enc, e.err = nil, nil, nil
	e.hint = min(e.hint, maxKeep)
	for i := range e.slots {
		s := &e.slots[i]
		s.err, s.done = nil, false
		if cap(s.buf) > maxKeep {
			s.buf = nil
		}
	}
	idle.Lock()
	defer idle.Unlock()
	if len(idle.list) < maxIdle {
		idle.list = append(idle.list, e)
	}
}

func (e *encoder) start(w io.Writer, n, chunks, slots int, enc func([]byte, int, int) ([]byte, error)) {
	e.w, e.enc, e.n = w, enc, n
	e.end, e.claim, e.written = chunks, 0, 0
	if cap(e.slots) < slots {
		e.slots = append(e.slots[:cap(e.slots)], make([]encodeSlot, slots-cap(e.slots))...)
	}
	e.slots = e.slots[:slots]
}

// run is one worker: it claims chunks in index order, encodes each into
// its slot once the slot is free, and writes out what is ready.
func (e *encoder) run() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.err == nil && e.claim < e.end {
		i := e.claim
		e.claim++
		for i-e.written >= len(e.slots) && e.err == nil {
			e.freed.Wait()
		}
		if e.err != nil || i >= e.end {
			return
		}
		s := &e.slots[i%len(e.slots)]
		buf := s.buf[:0]
		if h := e.hint; cap(buf) < h {
			// Start a short buffer at the longest chunk and a quarter,
			// rather than growing it by append a step at a time.
			buf = make([]byte, 0, min(h+h/4, maxKeep))
		}
		e.mu.Unlock()
		buf, err := e.encode(i, buf)
		e.mu.Lock()
		e.hint = max(e.hint, len(buf))
		s.buf, s.err, s.done = buf, err, true
		if err != nil && i+1 < e.end {
			e.end = i + 1
		}
		e.drain()
	}
}

// drain writes every done chunk from the next one to write on, unless
// another worker is already doing so. Callers hold the lock; it is
// released around each write.
func (e *encoder) drain() {
	if e.writing {
		return
	}
	e.writing = true
	for e.err == nil && e.written < e.end {
		i := e.written
		s := &e.slots[i%len(e.slots)]
		if !s.done {
			break
		}
		e.mu.Unlock()
		werr := e.write(i, s.buf)
		e.mu.Lock()
		s.done = false
		switch {
		case werr != nil:
			e.err = werr
		case s.err != nil:
			e.err = s.err
		}
		e.written++
		e.freed.Broadcast()
	}
	e.writing = false
}

// encode runs enc over chunk i, turning a panic into a *PanicError.
func (e *encoder) encode(i int, dst []byte) (buf []byte, err error) {
	lo := i * EncodeChunk
	defer func() {
		if v := recover(); v != nil {
			buf, err = dst[:0], &PanicError{Index: lo, Value: v}
		}
	}()
	return e.enc(dst, lo, min(lo+EncodeChunk, e.n))
}

// write hands chunk i's bytes to w, turning a failure into a
// *WriteError and a panic into a *PanicError.
func (e *encoder) write(i int, b []byte) (err error) {
	if len(b) == 0 {
		return nil
	}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i * EncodeChunk, Value: v}
		}
	}()
	n, err := e.w.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return &WriteError{Index: i * EncodeChunk, Err: err}
	}
	return nil
}

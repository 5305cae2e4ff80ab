package par

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// lines is an Encode encoder writing record i as "i\n", yielding now and
// then so chunks finish out of order.
func lines(dst []byte, lo, hi int) ([]byte, error) {
	for i := lo; i < hi; i++ {
		if i%97 == 0 {
			runtime.Gosched()
		}
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, '\n')
	}
	return dst, nil
}

// withProcs runs fn at each GOMAXPROCS setting, restoring the old one.
func withProcs(t *testing.T, procs []int, fn func(p int)) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		fn(p)
	}
}

// TestEncodeMatchesSerial: at any core count and any record count around
// the chunk boundaries, Encode writes exactly the serial encoding.
func TestEncodeMatchesSerial(t *testing.T) {
	withProcs(t, []int{1, 2, 8}, func(p int) {
		for _, n := range []int{0, 1, EncodeChunk - 1, EncodeChunk, EncodeChunk + 1, 4 * EncodeChunk, 37*EncodeChunk + 1} {
			want, _ := lines(nil, 0, n)
			var got bytes.Buffer
			if err := Encode(&got, n, lines); err != nil {
				t.Fatalf("procs %d n %d: %v", p, n, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("procs %d n %d: wrote %d bytes, want the serial %d", p, n, got.Len(), len(want))
			}
		}
	})
}

// TestEncodeLowestErrorWins: of two failing records the lower one's
// error comes back, and the writer holds exactly the records before it,
// as a serial loop would have written them.
func TestEncodeLowestErrorWins(t *testing.T) {
	const n, first, second = 10 * EncodeChunk, 3*EncodeChunk + 5, 7 * EncodeChunk
	enc := func(dst []byte, lo, hi int) ([]byte, error) {
		for i := lo; i < hi; i++ {
			if i == first || i == second {
				return dst, fmt.Errorf("record %d", i)
			}
			dst, _ = lines(dst, i, i+1)
		}
		return dst, nil
	}
	withProcs(t, []int{1, 2, 8}, func(p int) {
		var got bytes.Buffer
		err := Encode(&got, n, enc)
		if err == nil || err.Error() != fmt.Sprintf("record %d", first) {
			t.Fatalf("procs %d: err = %v, want record %d", p, err, first)
		}
		if want, _ := lines(nil, 0, first); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("procs %d: wrote %d bytes before the failure, want %d", p, got.Len(), len(want))
		}
	})
}

// failWriter accepts limit bytes, then fails every write.
type failWriter struct {
	n, limit int
	err      error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, w.err
	}
	w.n += len(p)
	return len(p), nil
}

// settledGoroutines waits briefly for exiting goroutines and returns the
// count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for try := 0; n > want && try < 100; try++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestEncodeWriterFails: a writer failing mid-stream gets its error back
// as a *WriteError naming the first record of the chunk it refused,
// nothing is written after it, and no goroutine outlives the call.
func TestEncodeWriterFails(t *testing.T) {
	boom := errors.New("disk full")
	withProcs(t, []int{1, 2, 8}, func(p int) {
		before := runtime.NumGoroutine()
		full, _ := lines(nil, 0, 3*EncodeChunk)
		w := &failWriter{limit: len(full), err: boom}
		err := Encode(w, 20*EncodeChunk, lines)
		var we *WriteError
		if !errors.As(err, &we) || !errors.Is(err, boom) || we.Index != 3*EncodeChunk {
			t.Fatalf("procs %d: err = %v, want a WriteError at record %d wrapping %v", p, err, 3*EncodeChunk, boom)
		}
		if w.n != len(full) {
			t.Fatalf("procs %d: %d bytes accepted, want the first three chunks' %d", p, w.n, len(full))
		}
		if after := settledGoroutines(before); after > before {
			t.Fatalf("procs %d: %d goroutines after Encode, %d before", p, after, before)
		}
	})
}

// TestEncodePanicResurfaces: a panicking encoder re-panics on the caller
// with a *PanicError naming its chunk's first record.
func TestEncodePanicResurfaces(t *testing.T) {
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok || pe.Index != 2*EncodeChunk || pe.Value != "boom" {
			t.Fatalf("recovered %v, want a PanicError at record %d", pe, 2*EncodeChunk)
		}
	}()
	Encode(&bytes.Buffer{}, 5*EncodeChunk, func(dst []byte, lo, hi int) ([]byte, error) {
		if lo == 2*EncodeChunk {
			panic("boom")
		}
		return lines(dst, lo, hi)
	})
	t.Fatal("Encode returned")
}

// idleBufs returns the capacity of the largest chunk buffer the idle
// encoders hold.
func idleBufs() (largest int) {
	idle.Lock()
	defer idle.Unlock()
	for _, e := range idle.list {
		for _, s := range e.slots {
			largest = max(largest, cap(s.buf))
		}
	}
	return largest
}

// TestEncodeBuffersBounded: an encode with chunks far past maxKeep keeps
// none of their buffers, and a small encode after it leaves no large
// buffer behind either.
func TestEncodeBuffersBounded(t *testing.T) {
	big := func(dst []byte, lo, hi int) ([]byte, error) {
		for i := lo; i < hi; i++ {
			dst = append(dst, bytes.Repeat([]byte{'x'}, 4<<10)...)
		}
		return dst, nil
	}
	withProcs(t, []int{1, 2, 8}, func(p int) {
		if err := Encode(&bytes.Buffer{}, 4*EncodeChunk, big); err != nil {
			t.Fatal(err)
		}
		if got := idleBufs(); got > maxKeep {
			t.Fatalf("procs %d: after a large encode an idle buffer holds %d bytes, over maxKeep %d", p, got, maxKeep)
		}
		var got bytes.Buffer
		if err := Encode(&got, 3*EncodeChunk, lines); err != nil {
			t.Fatal(err)
		}
		if largest := idleBufs(); largest > maxKeep {
			t.Fatalf("procs %d: after a small encode an idle buffer holds %d bytes, over maxKeep %d", p, largest, maxKeep)
		}
	})
}

package wire

import (
	"errors"
	"testing"
)

func TestReaderReadsInOrder(t *testing.T) {
	b := []byte{1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 2, 'h', 'i', 9, 'x', 'y'}
	r := NewReader(b)
	if r.U8() != 1 || r.U16() != 2 || r.U32() != 3 || r.U64() != 4 {
		t.Fatal("integers read out of order")
	}
	if s := r.Span(); string(s) != "hi" || cap(s) != 2 {
		t.Fatalf("span %q (cap %d), want \"hi\" capped at its length", s, cap(s))
	}
	r.Skip(1)
	if r.Off() != len(b)-2 || string(r.Rest()) != "xy" {
		t.Fatalf("off %d rest %q", r.Off(), r.Rest())
	}
	if s := r.Bytes(0); s == nil || len(s) != 0 {
		t.Fatalf("empty read %v, want empty and non-nil", s)
	}
	if string(r.Bytes(2)) != "xy" || len(r.Rest()) != 0 || r.Err() != nil {
		t.Fatalf("end of frame: rest %q err %v", r.Rest(), r.Err())
	}
}

func TestReaderFailureIsSticky(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 9, 1, 2})
	if r.Span() != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("over-long span read: err %v", r.Err())
	}
	if r.U8() != 0 || r.Rest() != nil || r.Bytes(0) != nil {
		t.Fatal("a failed reader went on reading")
	}
	cause := errors.New("bad count")
	r = NewReader([]byte{1, 2, 3})
	r.Fail(cause)
	r.Skip(10)
	if r.Err() != cause {
		t.Fatalf("err %v, want the first cause", r.Err())
	}
	r = NewReader([]byte{1})
	r.Skip(-1)
	if r.Err() != ErrTruncated || r.Off() != 0 {
		t.Fatalf("negative skip: err %v off %d", r.Err(), r.Off())
	}
}

// A reader is a stack value: decoding through it allocates nothing.
func TestReaderDoesNotEscape(t *testing.T) {
	b := []byte{0, 0, 0, 2, 7, 8, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5}
	var sum uint64
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(b)
		s := r.Span()
		sum += uint64(s[0]) + uint64(r.U16()) + r.U64() + uint64(r.Off())
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per decode, want 0", allocs)
	}
}

package eval

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunParallelOrder checks the canonical-order merge: results land at
// their cell's index regardless of worker count or completion order.
func TestRunParallelOrder(t *testing.T) {
	cells := make([]int, 100)
	for i := range cells {
		cells[i] = i
	}
	for _, workers := range []int{0, 1, 3, 7, 200} {
		out, err := RunParallel(cells, workers, nil, func(c int) (int, error) {
			return c * c, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestRunParallelErrors checks the error policy: every cell runs even
// when some fail, and the reported error is the first failure in
// canonical cell order — not the first to happen on the wall clock.
func TestRunParallelErrors(t *testing.T) {
	cells := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var ran atomic.Int64
	_, err := RunParallel(cells, 4, nil, func(c int) (int, error) {
		ran.Add(1)
		if c == 3 || c == 6 {
			return 0, fmt.Errorf("cell %d failed", c)
		}
		return c, nil
	})
	if err == nil || err.Error() != "cell 3 failed" {
		t.Fatalf("err = %v, want first canonical failure (cell 3)", err)
	}
	if int(ran.Load()) != len(cells) {
		t.Fatalf("ran %d cells, want all %d", ran.Load(), len(cells))
	}
}

// TestRunParallelEmpty checks the degenerate inputs.
func TestRunParallelEmpty(t *testing.T) {
	out, err := RunParallel(nil, 4, nil, func(int) (int, error) {
		return 0, errors.New("must not run")
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v, want empty and nil", out, err)
	}
}

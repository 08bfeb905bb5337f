// Package atomicx provides a lock-free atomic add on floating point
// memory locations.
//
// It is the Go analog of Ligra's writeAdd intrinsic, which the paper uses
// to make the GEE edge map race-free: concurrent edge updates to the same
// embedding cell Z(u, k) are resolved with a compare-and-swap loop over
// the float's bit pattern instead of a lock.
//
// The unsafe.Pointer reinterpretation of a float as the unsigned integer
// of the same width is confined to this package. It is valid because
// float64/uint64 and float32/uint32 have identical size and alignment on
// all supported Go platforms.
package atomicx

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// Add atomically performs *p += v for either float width: a CAS retry
// loop over the bit pattern of *p. The width test is a constant in each
// instantiation and the CAS loops are written out rather than called,
// which keeps Add inside the compiler's inlining budget — generic callers
// (the exec walk) get the loop in line, with no call per add.
//
//gee:noalloc
func Add[T ~float32 | ~float64](p *T, v T) {
	if unsafe.Sizeof(v) == 8 {
		u := (*uint64)(unsafe.Pointer(p))
		for {
			old := atomic.LoadUint64(u)
			if atomic.CompareAndSwapUint64(u, old, math.Float64bits(math.Float64frombits(old)+float64(v))) {
				return
			}
		}
	}
	u := (*uint32)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint32(u)
		if atomic.CompareAndSwapUint32(u, old, math.Float32bits(math.Float32frombits(old)+float32(v))) {
			return
		}
	}
}

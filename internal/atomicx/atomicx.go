// Package atomicx provides lock-free atomic read-modify-write operations
// on floating point memory locations.
//
// It is the Go analog of Ligra's writeAdd/writeMin intrinsics, which the
// paper uses to make the GEE edge map race-free: concurrent edge updates
// to the same embedding cell Z(u, k) are resolved with a compare-and-swap
// loop over the float's bit pattern instead of a lock.
//
// The unsafe.Pointer reinterpretation of *float64 as *uint64 is confined
// to this package. It is valid because float64 and uint64 have identical
// size and alignment on all supported Go platforms.
package atomicx

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// AddFloat64 atomically performs *p += v and returns the new value.
// It is lock-free: a CAS retry loop over the bit pattern of *p.
//
//gee:noalloc
func AddFloat64(p *float64, v float64) float64 {
	u := (*uint64)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint64(u)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(u, old, next) {
			return math.Float64frombits(next)
		}
	}
}

// Add atomically performs *p += v for either float width: AddFloat64
// without the returned value, or the same loop over a float32's bits.
// The width test is a constant in each instantiation and the CAS loops
// are written out rather than called, which keeps Add inside the
// compiler's inlining budget — generic callers (the exec walk) get the
// loop in line, with no call per add.
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

// MinFloat64 atomically performs *p = min(*p, v). It returns true when v
// replaced the previous value (Ligra's writeMin contract, used by e.g.
// Bellman-Ford style algorithms on the same engine).
//
//gee:noalloc
func MinFloat64(p *float64, v float64) bool {
	u := (*uint64)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint64(u)
		cur := math.Float64frombits(old)
		if v >= cur {
			return false
		}
		if atomic.CompareAndSwapUint64(u, old, math.Float64bits(v)) {
			return true
		}
	}
}

// MaxFloat64 atomically performs *p = max(*p, v), returning true when v
// replaced the previous value.
//
//gee:noalloc
func MaxFloat64(p *float64, v float64) bool {
	u := (*uint64)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint64(u)
		cur := math.Float64frombits(old)
		if v <= cur {
			return false
		}
		if atomic.CompareAndSwapUint64(u, old, math.Float64bits(v)) {
			return true
		}
	}
}

// LoadFloat64 atomically loads *p.
//
//gee:noalloc
func LoadFloat64(p *float64) float64 {
	return math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Pointer(p))))
}

// StoreFloat64 atomically stores v into *p.
//
//gee:noalloc
func StoreFloat64(p *float64, v float64) {
	atomic.StoreUint64((*uint64)(unsafe.Pointer(p)), math.Float64bits(v))
}

// CASUint32 is Ligra's CAS primitive on uint32 cells, exposed for frontier
// flag updates (claim a vertex exactly once during a sparse edge map).
//
//gee:noalloc
func CASUint32(p *uint32, old, new uint32) bool {
	return atomic.CompareAndSwapUint32(p, old, new)
}

// Package noalloc seeds allocating constructs inside annotated
// functions, plus a required-but-unannotated hot path.
package noalloc

import (
	"strconv"
	"unsafe"
)

// mustAnnotate is listed as Required in the golden config but carries
// no annotation.
func mustAnnotate() {} // want "must carry //gee:noalloc"

func helper() {}

//gee:noalloc
func leaf() {}

// callsLeaf calls an annotated module function: clean.
//
//gee:noalloc
func callsLeaf() { leaf() }

// callsHelper calls an unannotated module function.
//
//gee:noalloc
func callsHelper() {
	helper() // want "not annotated"
}

//gee:noalloc
func appends(xs []int, v int) []int {
	return append(xs, v) // want "append may grow"
}

//gee:noalloc
func concat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

//gee:noalloc
func makes() []byte {
	return make([]byte, 8) // want "make allocates"
}

//gee:noalloc
func converts(s string) []byte {
	return []byte(s) // want "conversion copies"
}

// formats appends into a caller-owned buffer through the
// strconv.Append allowlist: clean.
//
//gee:noalloc
func formats(buf []byte, v uint64) []byte {
	return strconv.AppendUint(buf[:0], v, 10)
}

// sizes calls an unsafe builtin, which is a compile-time constant, not
// a dynamic call: clean.
//
//gee:noalloc
func sizes(v float64) bool { return unsafe.Sizeof(v) == 8 }

//gee:noalloc
func spawns() {
	go leaf() // want "go statement"
}

//gee:noalloc
func dyn(f func()) {
	f() // want "dynamic call"
}

// sink is annotated and empty; its interface parameter is the boxing
// target below.
//
//gee:noalloc
func sink(v any) { _ = v }

//gee:noalloc
func boxes(n int) {
	sink(n) // want "boxes (allocates)"
}

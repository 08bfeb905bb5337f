// Package wire implements the compact binary frame that carries the
// serving tier's large row payloads — snapshot bootstrap, epoch-delta
// fan-out, and batched embedding reads. Snapshots and batched reads
// travel as frames when a client negotiates Content-Type
// application/x-gee-frame instead of the JSON debug path; a delta is
// only ever a frame.
//
// Layout, little-endian throughout (every section offset is a multiple
// of 4, so a decoder may alias the fixed-width arrays of an in-memory
// body in place instead of copying them out):
//
//	magic    [8]byte  "GEEWIRE1"
//	kind     uint8    1=snapshot 2=delta 3=embeddings
//	flags    uint8    bit0 = resync, bit1 = sparse rows (both delta only)
//	reserved uint16   must be zero
//	k        uint32   row width (embedding columns)
//	epoch    uint64
//	instance uint64   embedder lifetime the epoch belongs to
//	from     uint64   delta origin epoch (0 otherwise)
//	edges    int64    live edges at epoch
//	n        uint32   total vertices on the server
//	ny       uint32   label-array entries (0, or n on snapshots)
//	nlabels  uint32   label-update pairs
//	nids     uint32   explicit row ids (0 = implicit identity 0..nrows-1)
//	nrows    uint32   payload rows
//	bodyb    uint32   sparse row blob length in bytes (0 on dense frames)
//	y        ny      × int32
//	labels   nlabels × (uint32 v, int32 class)
//	ids      nids    × uint32   (dense frames only)
//	rows     nrows×k × float32  (dense frames only)
//	sparse   bodyb bytes        (sparse frames only; replaces ids+rows)
//
// Rows travel as float32: the binary wire's documented precision. The
// JSON path serves the full float64 bits (shortest round-trip decimal);
// the binary path trades the mantissa tail for fewer bytes. A float32
// survives the float64 round trip exactly, so a follower fed binary
// frames stays bit-identical to binary re-reads of the primary.
//
// # Sparse rows
//
// Delta frames may set flag bit1 and encode their rows sparsely —
// embedding rows in this system are mostly zero (a vertex's row is
// nonzero only in the classes its labeled neighbors carry), and JSON
// spends just one byte per zero, so a fixed-width binary row would
// hand back most of its advantage. The sparse blob holds the rows in
// ascending vertex order, each encoded as:
//
//	id      uvarint  first row: the vertex id; later rows: the
//	                 (strictly positive) increment over the previous id
//	bitmap  ⌈k/8⌉ bytes, bit j (LSB-first) set iff column j is nonzero
//	values  one little-endian float32 per set bit, in column order
//
// The encoding is canonical and decoders enforce it — minimal
// varints, zero padding bits past column k-1, no explicitly stored
// +0.0 (a float32 whose bits are zero must be elided; -0.0 has
// nonzero bits and is stored) — so any accepted frame re-encodes
// byte-identically. Snapshots stay dense: their payload is the bulk
// of the matrix, and the fixed layout is what lets a decoder alias the
// rows in place (see DecodeFrame).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// ContentType is the negotiated media type of a binary frame response.
// A server only answers with frames when the request's Accept header
// lists this type explicitly: JSON otherwise, or 406 for a delta.
const ContentType = "application/x-gee-frame"

// Frame kinds.
const (
	KindSnapshot   = 1
	KindDelta      = 2
	KindEmbeddings = 3
)

// HeaderSize is the fixed frame prefix length in bytes.
const HeaderSize = 72

var magic = [8]byte{'G', 'E', 'E', 'W', 'I', 'R', 'E', '1'}

const (
	flagResync = 1 << 0
	flagSparse = 1 << 1
)

// maxCount bounds every header count and maxBody the total body
// length: a corrupted or hostile 72-byte header must not turn into a
// multi-gigabyte make() in ReadFrame. maxCount is small enough that
// the widest term below, 4·nrows·k ≤ 4·2^30·2^30 = 2^62, cannot
// overflow int64 — the size arithmetic is exact before it is compared
// against maxBody.
const (
	maxCount = 1 << 30
	maxBody  = 512 << 20
)

// hostLittle reports whether this machine stores integers little-endian
// — the precondition for aliasing wire bytes as typed slices.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Label is one label update: vertex V now has class Class (-1 removes
// the label). Field order and widths match the wire exactly.
type Label struct {
	V     uint32
	Class int32
}

// Header is the fixed-size frame prefix.
type Header struct {
	Kind   uint8
	Resync bool
	// Sparse marks a delta frame whose rows travel in the sparse blob
	// encoding (see the package doc) instead of the fixed sections.
	Sparse   bool
	K        uint32
	Epoch    uint64
	Instance uint64
	From     uint64
	Edges    int64
	N        uint32
	NY       uint32
	NLabels  uint32
	NIDs     uint32
	NRows    uint32
	// BodyBytes is the sparse row blob's exact byte length; zero on
	// dense frames. Encoders derive it (see Frame.normalized).
	BodyBytes uint32
}

// AppendTo appends the encoded 72-byte header to buf.
func (h Header) AppendTo(buf []byte) []byte {
	var b [HeaderSize]byte
	copy(b[0:8], magic[:])
	b[8] = h.Kind
	if h.Resync {
		b[9] |= flagResync
	}
	if h.Sparse {
		b[9] |= flagSparse
	}
	binary.LittleEndian.PutUint32(b[12:], h.K)
	binary.LittleEndian.PutUint64(b[16:], h.Epoch)
	binary.LittleEndian.PutUint64(b[24:], h.Instance)
	binary.LittleEndian.PutUint64(b[32:], h.From)
	binary.LittleEndian.PutUint64(b[40:], uint64(h.Edges))
	binary.LittleEndian.PutUint32(b[48:], h.N)
	binary.LittleEndian.PutUint32(b[52:], h.NY)
	binary.LittleEndian.PutUint32(b[56:], h.NLabels)
	binary.LittleEndian.PutUint32(b[60:], h.NIDs)
	binary.LittleEndian.PutUint32(b[64:], h.NRows)
	binary.LittleEndian.PutUint32(b[68:], h.BodyBytes)
	return append(buf, b[:]...)
}

// ParseHeader decodes and validates the fixed prefix (b must hold at
// least HeaderSize bytes).
func ParseHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderSize {
		return h, fmt.Errorf("wire: truncated header: %d bytes, need %d", len(b), HeaderSize)
	}
	if [8]byte(b[0:8]) != magic {
		return h, fmt.Errorf("wire: bad magic %q", b[0:8])
	}
	h.Kind = b[8]
	switch h.Kind {
	case KindSnapshot, KindDelta, KindEmbeddings:
	default:
		return h, fmt.Errorf("wire: unknown frame kind %d", h.Kind)
	}
	flags := b[9]
	if flags&^byte(flagResync|flagSparse) != 0 {
		return h, fmt.Errorf("wire: unknown flags %#x", flags)
	}
	h.Resync = flags&flagResync != 0
	h.Sparse = flags&flagSparse != 0
	if (h.Resync || h.Sparse) && h.Kind != KindDelta {
		return h, fmt.Errorf("wire: flags %#x on frame kind %d", flags, h.Kind)
	}
	if h.Resync && h.Sparse {
		return h, fmt.Errorf("wire: resync frame claims a sparse body")
	}
	if b[10] != 0 || b[11] != 0 {
		return h, fmt.Errorf("wire: nonzero reserved header bytes")
	}
	h.BodyBytes = binary.LittleEndian.Uint32(b[68:])
	if !h.Sparse && h.BodyBytes != 0 {
		return h, fmt.Errorf("wire: sparse body length %d on a dense frame", h.BodyBytes)
	}
	h.K = binary.LittleEndian.Uint32(b[12:])
	h.Epoch = binary.LittleEndian.Uint64(b[16:])
	h.Instance = binary.LittleEndian.Uint64(b[24:])
	h.From = binary.LittleEndian.Uint64(b[32:])
	h.Edges = int64(binary.LittleEndian.Uint64(b[40:]))
	h.N = binary.LittleEndian.Uint32(b[48:])
	h.NY = binary.LittleEndian.Uint32(b[52:])
	h.NLabels = binary.LittleEndian.Uint32(b[56:])
	h.NIDs = binary.LittleEndian.Uint32(b[60:])
	h.NRows = binary.LittleEndian.Uint32(b[64:])
	return h, nil
}

// BodySize validates the header's counts against each other and
// returns the exact byte length of the sections that follow it.
func (h Header) BodySize() (int64, error) {
	// Every count is bounded individually, written as explicit
	// per-field comparisons against the named cap (not a loop over a
	// field table) so the boundedmake analyzer can verify that each
	// Header count is capped before any decoder sizes an allocation
	// from it. A table-driven loop checks the same thing at runtime but
	// is opaque to the static check — and the check is what keeps the
	// next decoder honest.
	if h.K > maxCount {
		return 0, fmt.Errorf("wire: implausible k=%d", h.K)
	}
	if h.N > maxCount {
		return 0, fmt.Errorf("wire: implausible n=%d", h.N)
	}
	if h.NY > maxCount {
		return 0, fmt.Errorf("wire: implausible ny=%d", h.NY)
	}
	if h.NLabels > maxCount {
		return 0, fmt.Errorf("wire: implausible nlabels=%d", h.NLabels)
	}
	if h.NIDs > maxCount {
		return 0, fmt.Errorf("wire: implausible nids=%d", h.NIDs)
	}
	if h.NRows > maxCount {
		return 0, fmt.Errorf("wire: implausible nrows=%d", h.NRows)
	}
	if h.NY != 0 && h.NY != h.N {
		return 0, fmt.Errorf("wire: label array of %d entries for %d vertices", h.NY, h.N)
	}
	if h.NIDs != 0 && h.NIDs != h.NRows {
		return 0, fmt.Errorf("wire: %d row ids for %d rows", h.NIDs, h.NRows)
	}
	if h.NRows > 0 && h.K == 0 {
		return 0, fmt.Errorf("wire: %d rows of width 0", h.NRows)
	}
	if h.Sparse {
		// The blob length comes from the header, but it must at least
		// cover the per-row minimum (one varint byte + the bitmap), and
		// the dense materialization it decodes into must stay within
		// the same bound a dense frame would — both checks keep a
		// hostile header from turning into a huge allocation.
		if h.NIDs != h.NRows {
			return 0, fmt.Errorf("wire: sparse frame with %d ids for %d rows", h.NIDs, h.NRows)
		}
		min := int64(h.NRows) * int64(1+(h.K+7)/8)
		if int64(h.BodyBytes) < min {
			return 0, fmt.Errorf("wire: sparse blob of %d bytes below the %d-byte floor for %d rows",
				h.BodyBytes, min, h.NRows)
		}
		if dense := 4 * int64(h.NRows) * int64(h.K); dense > maxBody {
			return 0, fmt.Errorf("wire: implausible sparse frame of %d dense bytes", dense)
		}
		size := 4*int64(h.NY) + 8*int64(h.NLabels) + int64(h.BodyBytes)
		if size > maxBody {
			return 0, fmt.Errorf("wire: implausible frame body of %d bytes", size)
		}
		return size, nil
	}
	size := 4*int64(h.NY) + 8*int64(h.NLabels) + 4*int64(h.NIDs) + 4*int64(h.NRows)*int64(h.K)
	if size > maxBody {
		return 0, fmt.Errorf("wire: implausible frame body of %d bytes", size)
	}
	return size, nil
}

// Frame is one decoded (or to-be-encoded) wire frame. On encode the
// section counts are derived from the slice lengths; Header count
// fields are ignored. A nil RowIDs means the rows are 0..NRows-1 in
// order (the snapshot case).
type Frame struct {
	Header
	Y      []int32
	Labels []Label
	RowIDs []uint32
	Rows   []float32 // NRows×K, row-major
}

// normalized returns the header with counts derived from the sections.
func (f *Frame) normalized() (Header, error) {
	h := f.Header
	h.NY = uint32(len(f.Y))
	h.NLabels = uint32(len(f.Labels))
	h.NIDs = uint32(len(f.RowIDs))
	if h.K > 0 {
		if len(f.Rows)%int(h.K) != 0 {
			return h, fmt.Errorf("wire: %d row floats not a multiple of k=%d", len(f.Rows), h.K)
		}
		h.NRows = uint32(len(f.Rows) / int(h.K))
	} else if len(f.Rows) > 0 {
		return h, fmt.Errorf("wire: %d row floats with k=0", len(f.Rows))
	} else {
		h.NRows = 0
	}
	h.BodyBytes = 0
	if h.Sparse {
		if h.NIDs != h.NRows {
			return h, fmt.Errorf("wire: sparse frame needs explicit ids: %d ids for %d rows", h.NIDs, h.NRows)
		}
		size, err := sparseBlobSize(f.RowIDs, f.Rows, int(h.K))
		if err != nil {
			return h, err
		}
		h.BodyBytes = uint32(size)
	}
	if _, err := h.BodySize(); err != nil {
		return h, err
	}
	return h, nil
}

// sparseBlobSize computes the exact sparse-encoded byte length of the
// rows, validating that ids ascend strictly (the encoding stores id
// increments, so out-of-order rows are unrepresentable).
func sparseBlobSize(ids []uint32, rows []float32, k int) (int64, error) {
	bitmapLen := (k + 7) / 8
	var size int64
	prev := uint32(0)
	for i, id := range ids {
		delta := uint64(id)
		if i > 0 {
			if id <= prev {
				return 0, fmt.Errorf("wire: sparse row ids not strictly ascending (%d after %d)", id, prev)
			}
			delta = uint64(id - prev)
		}
		prev = id
		size += int64(uvarintLen(delta)) + int64(bitmapLen)
		for _, x := range rows[i*k : (i+1)*k] {
			if math.Float32bits(x) != 0 {
				size += 4
			}
		}
	}
	return size, nil
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// WriteTo encodes the whole frame (implements io.WriterTo). Large
// streams should prefer the incremental Append helpers; WriteTo is the
// convenience path for tests and small frames.
func (f *Frame) WriteTo(w io.Writer) (int64, error) {
	h, err := f.normalized()
	if err != nil {
		return 0, err
	}
	buf := h.AppendTo(make([]byte, 0, 1<<16))
	buf = AppendI32s(buf, f.Y)
	buf = AppendLabels(buf, f.Labels)
	var total int64
	flush := func() error {
		n, err := w.Write(buf)
		total += int64(n)
		buf = buf[:0]
		return err
	}
	k := int(h.K)
	if h.Sparse {
		if err := flush(); err != nil {
			return total, err
		}
		prev := uint32(0)
		for i, id := range f.RowIDs {
			delta := uint64(id)
			if i > 0 {
				delta = uint64(id - prev)
			}
			prev = id
			buf = appendSparseRow32(buf, delta, f.Rows[i*k:(i+1)*k])
			if len(buf) >= 1<<16 {
				if err := flush(); err != nil {
					return total, err
				}
			}
		}
		if err := flush(); err != nil {
			return total, err
		}
		return total, nil
	}
	buf = AppendU32s(buf, f.RowIDs)
	if err := flush(); err != nil {
		return total, err
	}
	for off := 0; off < len(f.Rows); off += k {
		for _, x := range f.Rows[off : off+k] {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
		if len(buf) >= 1<<16 {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	if err := flush(); err != nil {
		return total, err
	}
	return total, nil
}

// AppendI32s appends a little-endian int32 section.
func AppendI32s(buf []byte, vals []int32) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// AppendU32s appends a little-endian uint32 section.
func AppendU32s(buf []byte, vals []uint32) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	return buf
}

// AppendLabel appends one label update.
func AppendLabel(buf []byte, l Label) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, l.V)
	return binary.LittleEndian.AppendUint32(buf, uint32(l.Class))
}

// AppendLabels appends a label-update section.
func AppendLabels(buf []byte, ls []Label) []byte {
	for _, l := range ls {
		buf = AppendLabel(buf, l)
	}
	return buf
}

// AppendRow appends one embedding row quantized to little-endian
// float32 — the streaming encoder's per-row hot path.
func AppendRow(buf []byte, row []float64) []byte {
	for _, x := range row {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(x)))
	}
	return buf
}

// AppendSparseRow appends one sparse-encoded delta row: the uvarint id
// increment, the nonzero bitmap, and the nonzero float32 values (see
// the package doc). idDelta is the row's vertex id for the first row
// of a frame and the strictly positive increment over the previous
// row's id after that.
func AppendSparseRow(buf []byte, idDelta uint64, row []float64) []byte {
	buf = binary.AppendUvarint(buf, idDelta)
	base := len(buf)
	for range (len(row) + 7) / 8 {
		buf = append(buf, 0)
	}
	for j, x := range row {
		bits := math.Float32bits(float32(x))
		if bits == 0 {
			continue
		}
		buf[base+j>>3] |= 1 << (j & 7)
		buf = binary.LittleEndian.AppendUint32(buf, bits)
	}
	return buf
}

// appendSparseRow32 is AppendSparseRow for already-quantized rows
// (re-encoding a decoded frame).
func appendSparseRow32(buf []byte, idDelta uint64, row []float32) []byte {
	buf = binary.AppendUvarint(buf, idDelta)
	base := len(buf)
	for range (len(row) + 7) / 8 {
		buf = append(buf, 0)
	}
	for j, x := range row {
		bits := math.Float32bits(x)
		if bits == 0 {
			continue
		}
		buf[base+j>>3] |= 1 << (j & 7)
		buf = binary.LittleEndian.AppendUint32(buf, bits)
	}
	return buf
}

// aliasable reports whether the section starting at b can be aliased
// as 4-byte elements.
func aliasable(b []byte) bool {
	return hostLittle && uintptr(unsafe.Pointer(&b[0]))%4 == 0
}

func asU32s(b []byte, n int) []uint32 {
	if n == 0 {
		return nil
	}
	if aliasable(b) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func asI32s(b []byte, n int) []int32 {
	if n == 0 {
		return nil
	}
	if aliasable(b) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func asF32s(b []byte, n int) []float32 {
	if n == 0 {
		return nil
	}
	if aliasable(b) {
		return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func asLabels(b []byte, n int) []Label {
	if n == 0 {
		return nil
	}
	if aliasable(b) && unsafe.Sizeof(Label{}) == 8 {
		return unsafe.Slice((*Label)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]Label, n)
	for i := range out {
		out[i].V = binary.LittleEndian.Uint32(b[i*8:])
		out[i].Class = int32(binary.LittleEndian.Uint32(b[i*8+4:]))
	}
	return out
}

// decodeSparseRows materializes a sparse blob into explicit ids and a
// dense row-major float32 matrix, enforcing the canonical form: minimal
// varints, strictly ascending in-range ids, clean padding bits, no
// explicitly stored +0.0, and no slack bytes.
func decodeSparseRows(h Header, b []byte) ([]uint32, []float32, error) {
	k := int(h.K)
	bitmapLen := (k + 7) / 8
	ids := make([]uint32, h.NRows)
	rows := make([]float32, int(h.NRows)*k)
	off := 0
	prev := uint64(0)
	for i := range ids {
		delta, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, nil, fmt.Errorf("wire: sparse row %d: bad id varint", i)
		}
		if n > 1 && b[off+n-1] == 0 {
			return nil, nil, fmt.Errorf("wire: sparse row %d: non-minimal id varint", i)
		}
		off += n
		id := delta
		if i > 0 {
			if delta == 0 {
				return nil, nil, fmt.Errorf("wire: sparse row %d: ids not strictly ascending", i)
			}
			// Bound the delta before adding: prev+delta near 2^64 wraps
			// to a small id that would pass the range check below while
			// breaking the ascending-ids invariant. prev < h.N always
			// holds here (row i-1 was accepted), so the subtraction
			// cannot underflow.
			if delta > uint64(h.N)-1-prev {
				return nil, nil, fmt.Errorf("wire: sparse row %d: id delta %d past the last vertex (prev %d, n=%d)",
					i, delta, prev, h.N)
			}
			id = prev + delta
		}
		if id >= uint64(h.N) {
			return nil, nil, fmt.Errorf("wire: sparse row %d: vertex %d out of range (n=%d)", i, id, h.N)
		}
		ids[i] = uint32(id)
		prev = id
		if off+bitmapLen > len(b) {
			return nil, nil, fmt.Errorf("wire: sparse row %d: truncated bitmap", i)
		}
		bm := b[off : off+bitmapLen]
		off += bitmapLen
		if k%8 != 0 && bm[bitmapLen-1]>>(k%8) != 0 {
			return nil, nil, fmt.Errorf("wire: sparse row %d: padding bits set", i)
		}
		row := rows[i*k : (i+1)*k]
		for j := 0; j < k; j++ {
			if bm[j>>3]&(1<<(j&7)) == 0 {
				continue
			}
			if off+4 > len(b) {
				return nil, nil, fmt.Errorf("wire: sparse row %d: truncated values", i)
			}
			bits := binary.LittleEndian.Uint32(b[off:])
			off += 4
			if bits == 0 {
				return nil, nil, fmt.Errorf("wire: sparse row %d: explicit zero value", i)
			}
			row[j] = math.Float32frombits(bits)
		}
	}
	if off != len(b) {
		return nil, nil, fmt.Errorf("wire: sparse blob has %d slack bytes", len(b)-off)
	}
	return ids, rows, nil
}

// frameFromBody slices (or copies, on hosts where aliasing is unsound)
// the validated sections out of the body bytes. Sparse rows are always
// materialized — only dense sections can alias.
func frameFromBody(h Header, body []byte) (*Frame, error) {
	f := &Frame{Header: h}
	off := 0
	f.Y = asI32s(body[off:], int(h.NY))
	off += 4 * int(h.NY)
	f.Labels = asLabels(body[off:], int(h.NLabels))
	off += 8 * int(h.NLabels)
	if h.Sparse {
		ids, rows, err := decodeSparseRows(h, body[off:])
		if err != nil {
			return nil, err
		}
		f.RowIDs, f.Rows = ids, rows
		return f, nil
	}
	f.RowIDs = asU32s(body[off:], int(h.NIDs))
	off += 4 * int(h.NIDs)
	f.Rows = asF32s(body[off:], int(h.NRows)*int(h.K))
	return f, nil
}

// DecodeFrame parses one complete frame held in memory. On
// little-endian hosts with a 4-byte-aligned data base the returned
// sections alias data — the caller must keep data valid and unmodified
// for the frame's lifetime. Trailing bytes are an error:
// a frame is a complete response body, not a stream element.
func DecodeFrame(data []byte) (*Frame, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, err
	}
	size, err := h.BodySize()
	if err != nil {
		return nil, err
	}
	if int64(len(data)-HeaderSize) != size {
		return nil, fmt.Errorf("wire: frame body is %d bytes, header promises %d",
			len(data)-HeaderSize, size)
	}
	return frameFromBody(h, data[HeaderSize:])
}

// ReadFrame reads and decodes one complete frame from r (a response
// body). The sections never alias the reader's buffers. A truncated or
// corrupted stream returns an error, never panics.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hb [HeaderSize]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return nil, fmt.Errorf("wire: truncated frame header: %w", err)
		}
		return nil, err
	}
	h, err := ParseHeader(hb[:])
	if err != nil {
		return nil, err
	}
	size, err := h.BodySize()
	if err != nil {
		return nil, err
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return nil, fmt.Errorf("wire: truncated frame body: %w", err)
		}
		return nil, err
	}
	return frameFromBody(h, body)
}

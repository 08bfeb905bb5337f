package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/xrand"
)

// randFrame builds a frame with adversarial float content: raw random
// bit patterns reinterpreted as float32, so NaNs, infinities, denormals
// and negative zero all ride along. Bit-exactness is compared on the
// bits, never with ==.
func randFrame(r *xrand.Rand) *Frame {
	k := 1 + r.Intn(8)
	n := r.Intn(200)
	nrows := r.Intn(n + 1)
	f := &Frame{Header: Header{
		K: uint32(k), N: uint32(n),
		Epoch: r.Uint64(), Instance: r.Uint64(), From: r.Uint64(),
		Edges: int64(r.Uint64() >> 1),
	}}
	switch r.Intn(3) {
	case 0:
		f.Kind = KindSnapshot
		f.Y = make([]int32, n)
		for i := range f.Y {
			f.Y[i] = int32(r.Uint64())
		}
		nrows = n
	case 1:
		f.Kind = KindDelta
		if r.Intn(4) == 0 {
			f.Resync = true
			return f
		}
		f.Labels = make([]Label, r.Intn(10))
		for i := range f.Labels {
			f.Labels[i] = Label{V: uint32(r.Intn(n + 1)), Class: int32(r.Intn(5)) - 1}
		}
		if r.Intn(2) == 0 {
			// Sparse rows: strictly ascending in-range ids, zero-heavy
			// values (the shape the encoding exists for — but the dense
			// random fill below still rides along sometimes, since all
			// bit patterns must survive).
			f.Sparse = true
			id := r.Intn(3)
			var ids []uint32
			for len(ids) < nrows && id < n {
				ids = append(ids, uint32(id))
				id += 1 + r.Intn(5)
			}
			f.RowIDs = ids
			f.Rows = make([]float32, len(ids)*k)
			for i := range f.Rows {
				if r.Intn(10) < 7 {
					continue // exact +0.0, elided on the wire
				}
				f.Rows[i] = math.Float32frombits(uint32(r.Uint64()))
			}
			return f
		}
		f.RowIDs = make([]uint32, nrows)
		for i := range f.RowIDs {
			f.RowIDs[i] = uint32(r.Intn(n + 1))
		}
	default:
		f.Kind = KindEmbeddings
		f.RowIDs = make([]uint32, nrows)
		for i := range f.RowIDs {
			f.RowIDs[i] = uint32(r.Intn(n + 1))
		}
	}
	f.Rows = make([]float32, nrows*k)
	for i := range f.Rows {
		f.Rows[i] = math.Float32frombits(uint32(r.Uint64()))
	}
	return f
}

func framesEqual(t *testing.T, want, got *Frame) {
	t.Helper()
	if want.Kind != got.Kind || want.Resync != got.Resync ||
		want.Sparse != got.Sparse ||
		want.K != got.K || want.N != got.N ||
		want.Epoch != got.Epoch || want.Instance != got.Instance ||
		want.From != got.From || want.Edges != got.Edges {
		t.Fatalf("header mismatch:\nwant %+v\ngot  %+v", want.Header, got.Header)
	}
	if len(want.Y) != len(got.Y) || len(want.Labels) != len(got.Labels) ||
		len(want.RowIDs) != len(got.RowIDs) || len(want.Rows) != len(got.Rows) {
		t.Fatalf("section lengths: want %d/%d/%d/%d got %d/%d/%d/%d",
			len(want.Y), len(want.Labels), len(want.RowIDs), len(want.Rows),
			len(got.Y), len(got.Labels), len(got.RowIDs), len(got.Rows))
	}
	for i := range want.Y {
		if want.Y[i] != got.Y[i] {
			t.Fatalf("Y[%d] = %d, want %d", i, got.Y[i], want.Y[i])
		}
	}
	for i := range want.Labels {
		if want.Labels[i] != got.Labels[i] {
			t.Fatalf("Labels[%d] = %+v, want %+v", i, got.Labels[i], want.Labels[i])
		}
	}
	for i := range want.RowIDs {
		if want.RowIDs[i] != got.RowIDs[i] {
			t.Fatalf("RowIDs[%d] = %d, want %d", i, got.RowIDs[i], want.RowIDs[i])
		}
	}
	for i := range want.Rows {
		if math.Float32bits(want.Rows[i]) != math.Float32bits(got.Rows[i]) {
			t.Fatalf("Rows[%d] = %x, want %x (not bit-identical)",
				i, math.Float32bits(got.Rows[i]), math.Float32bits(want.Rows[i]))
		}
	}
}

// encodedSize returns the exact on-wire byte length of f: its header
// plus the body its normalized header describes.
func encodedSize(f *Frame) (int64, error) {
	h, err := f.normalized()
	if err != nil {
		return 0, err
	}
	body, err := h.BodySize()
	if err != nil {
		return 0, err
	}
	return HeaderSize + body, nil
}

// TestFrameRoundTripProperty is the bit-exactness property test: any
// encodable frame decodes back — via both the reader and the in-place
// decoder — to the same bits, including NaN payloads, and the encoded
// length matches encodedSize exactly.
func TestFrameRoundTripProperty(t *testing.T) {
	r := xrand.New(211)
	for trial := 0; trial < 300; trial++ {
		f := randFrame(r)
		var buf bytes.Buffer
		n, err := f.WriteTo(&buf)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		want, err := encodedSize(f)
		if err != nil || n != int64(buf.Len()) || n != want {
			t.Fatalf("trial %d: wrote %d bytes, buffer %d, encodedSize %d (%v)",
				trial, n, buf.Len(), want, err)
		}
		got, err := ReadFrame(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: ReadFrame: %v", trial, err)
		}
		framesEqual(t, f, got)
		got2, err := DecodeFrame(buf.Bytes())
		if err != nil {
			t.Fatalf("trial %d: DecodeFrame: %v", trial, err)
		}
		framesEqual(t, f, got2)
	}
}

// TestTruncatedAndCorruptedFrames: every prefix of a valid frame must
// decode to an error (never a panic, never silent success), as must
// targeted corruptions of the header.
func TestTruncatedAndCorruptedFrames(t *testing.T) {
	r := xrand.New(223)
	f := randFrame(r)
	f.Kind = KindSnapshot
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 1 + len(full)/97 {
		if _, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(full))
		}
		if _, err := DecodeFrame(full[:cut]); err == nil {
			t.Fatalf("in-place truncation at %d/%d decoded without error", cut, len(full))
		}
	}
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), full...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":      corrupt(func(b []byte) { b[0] = 'X' }),
		"unknown kind":   corrupt(func(b []byte) { b[8] = 99 }),
		"unknown flags":  corrupt(func(b []byte) { b[9] = 0xFE }),
		"reserved set":   corrupt(func(b []byte) { b[10] = 1 }),
		"huge nrows":     corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[64:], 1<<31+5) }),
		"ny mismatch":    corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[52:], 3) }),
		"trailing bytes": append(append([]byte(nil), full...), 0, 0, 0, 0),
	}
	for name, b := range cases {
		if _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: DecodeFrame accepted corrupted frame", name)
		}
	}
	// Resync is only legal on deltas.
	if _, err := DecodeFrame(corrupt(func(b []byte) { b[9] = 1 })); err == nil {
		t.Error("resync flag on a snapshot frame accepted")
	}
}

// TestSparseFrameCorruptions exercises the sparse decoder's canonical-
// form enforcement over a hand-built frame with a known byte layout:
// k=5 (one bitmap byte, three padding bits), two rows — vertex 2
// all-zero, vertex 7 with one nonzero column — so every interesting
// offset is addressable.
func TestSparseFrameCorruptions(t *testing.T) {
	f := &Frame{Header: Header{
		Kind: KindDelta, Sparse: true, K: 5, N: 10, Epoch: 3, Instance: 9, From: 2,
	}}
	f.RowIDs = []uint32{2, 7}
	f.Rows = make([]float32, 10)
	f.Rows[5+3] = 1.5 // row 1 (vertex 7), column 3
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Blob layout: [0x02][bm=0x00] [0x05][bm=0x08][f32 1.5] = 8 bytes.
	if got := binary.LittleEndian.Uint32(full[68:]); got != 8 {
		t.Fatalf("expected a 9-byte blob, header says %d — layout drifted, fix the offsets below", got)
	}
	decoded, err := DecodeFrame(full)
	if err != nil {
		t.Fatal(err)
	}
	framesEqual(t, f, decoded)
	blob := HeaderSize // no Y, no labels: blob starts right after the header
	corrupt := func(name string, mutate func(b []byte)) {
		b := append([]byte(nil), full...)
		mutate(b)
		if _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: DecodeFrame accepted the corrupted frame", name)
		}
	}
	corrupt("ids not ascending", func(b []byte) { b[blob+2] = 0 })
	corrupt("id out of range", func(b []byte) { b[blob+2] = 9 }) // 2+9 ≥ n=10
	corrupt("padding bits set", func(b []byte) { b[blob+3] |= 1 << 7 })
	corrupt("explicit zero value", func(b []byte) {
		copy(b[blob+4:blob+8], []byte{0, 0, 0, 0})
	})
	corrupt("resync and sparse", func(b []byte) { b[9] |= 1 })
	corrupt("body length below floor", func(b []byte) { binary.LittleEndian.PutUint32(b[68:], 3) })
	corrupt("body length too long", func(b []byte) { binary.LittleEndian.PutUint32(b[68:], 10) })

	// Slack bytes inside the declared blob must be rejected even when
	// the header's length is self-consistent.
	slack := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(slack[68:], 12)
	slack = append(slack, 0, 0, 0, 0)
	if _, err := DecodeFrame(slack); err == nil {
		t.Error("slack bytes after the last sparse row accepted")
	}
	// A non-minimal varint encodes the same frame in different bytes —
	// canonical form requires the decoder to reject it.
	nonMin := append([]byte(nil), full[:HeaderSize]...)
	binary.LittleEndian.PutUint32(nonMin[68:], 9)
	nonMin = append(nonMin, 0x82, 0x00) // vertex 2 as a 2-byte varint
	nonMin = append(nonMin, full[blob+1:]...)
	if _, err := DecodeFrame(nonMin); err == nil {
		t.Error("non-minimal id varint accepted")
	}
	// The sparse flag is delta-only.
	dense := &Frame{Header: Header{Kind: KindSnapshot, K: 2, N: 1}}
	dense.Y = []int32{0}
	dense.Rows = []float32{1, 2}
	var db bytes.Buffer
	if _, err := dense.WriteTo(&db); err != nil {
		t.Fatal(err)
	}
	sb := db.Bytes()
	sb[9] |= 1 << 1
	if _, err := DecodeFrame(sb); err == nil {
		t.Error("sparse flag on a snapshot frame accepted")
	}
}

// TestHostileCountHeaders: a 72-byte header whose counts are huge must
// decode to an error, never a panic and never a giant allocation. The
// first case is the historical overflow: with nrows=k=2^31 the dense
// term 4·nrows·k wraps int64 to exactly 0, BodySize used to return
// (0, nil), and DecodeFrame then panicked indexing the empty body.
func TestHostileCountHeaders(t *testing.T) {
	cases := map[string]Header{
		"nrows=k=2^31 (product wraps to 0)": {
			Kind: KindSnapshot, K: 1 << 31, N: 1 << 31, NRows: 1 << 31},
		"nrows=k=2^30 (product 2^62 over body cap)": {
			Kind: KindSnapshot, K: 1 << 30, N: 1 << 30, NRows: 1 << 30},
		"ny=n=2^31 (8 GiB label section)": {
			Kind: KindSnapshot, N: 1 << 31, NY: 1 << 31},
		"ny=n=2^28 (1 GiB body over cap)": {
			Kind: KindSnapshot, N: 1 << 28, NY: 1 << 28},
	}
	for name, h := range cases {
		b := h.AppendTo(nil)
		if _, err := h.BodySize(); err == nil {
			t.Errorf("%s: BodySize accepted the header", name)
		}
		if _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: DecodeFrame accepted the header", name)
		}
		if _, err := ReadFrame(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: ReadFrame accepted the header", name)
		}
	}
}

// TestSparseIDDeltaWraparound: a minimal 10-byte varint delta near 2^64
// makes prev+delta wrap to a small in-range id (5 + (2^64-3) = 2); the
// decoder must reject it rather than accept out-of-order row ids.
func TestSparseIDDeltaWraparound(t *testing.T) {
	h := Header{Kind: KindDelta, Sparse: true, K: 5, N: 10,
		NIDs: 2, NRows: 2, BodyBytes: 13}
	b := h.AppendTo(nil)
	b = append(b, 0x05, 0x00)                 // row 0: vertex 5, all-zero bitmap
	b = binary.AppendUvarint(b, ^uint64(0)-2) // row 1: delta 2^64-3 wraps to id 2
	b = append(b, 0x00)                       // row 1 bitmap
	if len(b) != HeaderSize+13 {
		t.Fatalf("frame is %d bytes, expected %d — fix BodyBytes above", len(b)-HeaderSize, 13)
	}
	fr, err := DecodeFrame(b)
	if err == nil {
		t.Fatalf("wrapping sparse id delta accepted: ids=%v", fr.RowIDs)
	}
}

// FuzzDecodeFrame: arbitrary bytes must never panic the decoders.
func FuzzDecodeFrame(f *testing.F) {
	r := xrand.New(227)
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if _, err := randFrame(r).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte("GEEWIRE1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if fr, err := DecodeFrame(data); err == nil {
			// Anything accepted must re-encode to the same bytes.
			var buf bytes.Buffer
			if _, err := fr.WriteTo(&buf); err != nil {
				t.Fatalf("accepted frame failed to re-encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatal("accepted frame re-encodes differently")
			}
		}
		_, _ = ReadFrame(bytes.NewReader(data))
	})
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// referenceDecode is the route's definition of a body: the
// encoding/json path decodeEdges falls back to, without the HTTP reply.
func referenceDecode(body []byte) ([]graph.Edge, error) {
	var req MutationRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if len(req.Labels) > 0 {
		return nil, fmt.Errorf("labels not accepted")
	}
	return toEdges(req.Edges)
}

// scanSeeds are bodies on and around the edge of what scanMutation
// takes; fast marks the ones it must take (declining is always safe,
// but declining a canonical body silently loses the speed-up).
var scanSeeds = []struct {
	body string
	fast bool
}{
	{`{"edges":[{"u":0,"v":1,"w":1},{"u":2,"v":5,"w":0.5}]}`, true},
	{`{"edges":[{"u":0,"w":2,"v":1}]}`, true},
	{`{"edges":[{"v":1,"u":0,"w":2}]}`, true},
	{`{"edges":[{"v":1,"w":2,"u":0}]}`, true},
	{`{"edges":[{"w":2,"u":0,"v":1}]}`, true},
	{`{"edges":[{"w":2,"v":1,"u":0}]}`, true},
	{`{"edges":[{"u":3,"v":4}]}`, true},
	{`{"edges":[]}`, true},
	{" {\n\t\"edges\" : [ { \"u\" : 6 , \"v\" : 7 , \"w\" : 1.5E+0 } ,{\"u\":4294967295,\"v\":0}]\r\n}\n", true},
	{`{"edges":[{"u":0,"v":1,"w":1e-45},{"u":0,"v":1,"w":3.4028235e38},{"u":0,"v":1,"w":0.1}]}`, true},
	{`{"edges":[{"u":3,"v":4,"w":null}]}`, false},
	{`{"edges":[{"U":3,"V":4,"W":2}]}`, false},
	{`{"EDGES":[{"u":3,"v":4}]}`, false},
	{`{"edges":[{"\u0075":3,"v":4}]}`, false},
	{`{"edges":[{"u":"1","v":2}]}`, false},
	{`{"edges":[{"u"}]}`, false},
	{`{"edges":[{"u":7,"u":3,"v":4}]}`, false},
	{`{"edges":[{"u":3}]}`, false},
	{`{"edges":[{}]}`, false},
	{`{"edges":null}`, false},
	{`{}`, false},
	{`null`, false},
	{`{"edges":[{"u":1e2,"v":1}]}`, false},
	{`{"edges":[{"u":1.0,"v":1}]}`, false},
	{`{"edges":[{"u":01,"v":1}]}`, false},
	{`{"edges":[{"u":-0,"v":1}]}`, false},
	{`{"edges":[{"u":4294967296,"v":1}]}`, false},
	{`{"edges":[{"u":99999999999999999999,"v":1}]}`, false},
	{`{"edges":[{"u":0,"v":1,"w":1e-46}]}`, false},
	{`{"edges":[{"u":0,"v":1,"w":3.5e38}]}`, false},
	{`{"edges":[{"u":0,"v":1,"w":0}]}`, false},
	{`{"edges":[{"u":0,"v":1,"w":-1}]}`, false},
	{`{"edges":[{"u":0,"v":1,"w":0},{"u":]}`, false},
	{`{"edges":[{"u":0,"v":1,"w":01}]}`, false},
	{`{"edges":[{"u":0,"v":1,"w":.5}]}`, false},
	{`{"edges":[{"u":0,"v":1,"w":1.}]}`, false},
	{`{"edges":[{"u":0,"v":1,"w":1e}]}`, false},
	{`{"edges":[{"u":0,"v":1,"x":}]}`, false},
	{`{"edges":[{"u":0,"v":1}],"labels":[{"v":1,"class":0}]}`, false},
	{`{"edges":[{"u":0,"v":1}],"labels":[]}`, false},
	{`{"edges":[{"u":0,"v":1,"x":1}]}`, false},
	{`{"edges":[],"edgez":[]}`, false},
	{`{"edges":[{"u":0,"v":1},]}`, false},
	{`{"edges":[{"u":0,"v":1}]}}`, false},
	{`{"edges":[{"u":0,"v":1}]} xyz`, false},
	{`{"edges":[{"u":0,"v":1}]}{"edges":[]}`, false},
	{`{"edges":[{"u":0,"v":1},{"u":2`, false},
	{`{"edges":[{"u":0,"v":1}]`, false},
	{`{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{`, false},
	{``, false},
}

// checkScan is the differential property: a body scanMutation takes is
// one the reference takes too, as the very same edges. A body it
// declines asserts nothing — the reference is what then runs.
func checkScan(t *testing.T, body []byte) (fast bool) {
	t.Helper()
	got, ok := scanMutation(body)
	if !ok {
		return false
	}
	want, err := referenceDecode(body)
	if err != nil {
		t.Fatalf("scanner took %q, encoding/json refuses it: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\nscanner       %v\nencoding/json %v", body, got, want)
	}
	return true
}

func TestScanMutationSeeds(t *testing.T) {
	for _, seed := range scanSeeds {
		if fast := checkScan(t, []byte(seed.body)); fast != seed.fast {
			t.Errorf("body %q: scanner took it = %v, want %v", seed.body, fast, seed.fast)
		}
	}
}

// TestScanMutationSpellings throws the differential property at bodies
// built from the grammar's own parts — member order, omitted and
// doubled members, whitespace, every number spelling — which a byte
// fuzzer reaches only slowly. Most are well-formed, so both sides of the
// scanner's boundary get exercised.
func TestScanMutationSpellings(t *testing.T) {
	r := xrand.New(7)
	pick := func(from []string) string { return from[r.Intn(len(from))] }
	space := []string{"", "", "", " ", "\n", "\t \r"}
	ids := []string{"0", "7", "99999", "4294967295", "4294967296", "01", "-0", "1.0", "1e2", `"3"`, "null"}
	weights := []string{"1", "4", "0.5", "2.25", "1e0", "1E+2", "1e-45", "3.4028235e38", "16777217", "9999999", "12345678",
		"0", "-1", "1e-46", "3.5e38", "01", ".5", "1.", "null", `"1"`}
	fast := 0
	for i := 0; i < 5000; i++ {
		var b []byte
		b = append(b, pick(space)+"{"+pick(space)+`"edges"`+pick(space)+":"+pick(space)+"["...)
		for e, n := 0, r.Intn(4); e < n; e++ {
			if e > 0 {
				b = append(b, pick(space)+","...)
			}
			b = append(b, pick(space)+"{"...)
			members := []string{"u", "v", "w", "u", "x"}[:2+r.Intn(2)+r.Intn(20)/19*2]
			for m := len(members) - 1; m > 0; m-- {
				j := r.Intn(m + 1)
				members[m], members[j] = members[j], members[m]
			}
			for m, key := range members {
				if m > 0 {
					b = append(b, pick(space)+","...)
				}
				val := pick(ids[:4+r.Intn(20)/19*7])
				if key == "w" {
					val = pick(weights[:11+r.Intn(20)/19*9])
				}
				b = append(b, pick(space)+`"`+key+`"`+pick(space)+":"+pick(space)+val...)
			}
			b = append(b, pick(space)+"}"...)
		}
		b = append(b, pick(space)+"]"+pick(space)+"}"+pick(space)...)
		if checkScan(t, b) {
			fast++
		}
	}
	if fast < 1000 || fast > 4500 {
		t.Errorf("scanner took %d of 5000 bodies: the generator no longer straddles its boundary", fast)
	}
}

// FuzzScanMutation walks the differential property from the seed bodies
// (CI runs it for 30 s beside FuzzDecodeFrame).
func FuzzScanMutation(f *testing.F) {
	for _, seed := range scanSeeds {
		f.Add([]byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScan(t, body)
	})
}

// bulkBody is the 4096-edge write the ingest workloads send: ids below
// 100k and a mix of unit and fractional weights.
func bulkBody() []byte {
	r := xrand.New(21)
	b := []byte(`{"edges":[`)
	for i := 0; i < 4096; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		w := float32(1)
		if i%4 == 0 {
			w = float32(r.Intn(1000)+1) / 8
		}
		b = fmt.Appendf(b, `{"u":%d,"v":%d,"w":%s}`, r.Intn(100000), r.Intn(100000),
			strconv.FormatFloat(float64(w), 'f', -1, 32))
	}
	return append(b, `]}`...)
}

var sinkEdges []graph.Edge

// BenchmarkScanMutation against BenchmarkReferenceDecode is the
// server half of the tentpole: MB/s and allocations per 4096-edge body.
func BenchmarkScanMutation(b *testing.B) {
	body := bulkBody()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		edges, ok := scanMutation(body)
		if !ok {
			b.Fatal("scanner declined the canonical body")
		}
		sinkEdges = edges
	}
}

func BenchmarkReferenceDecode(b *testing.B) {
	body := bulkBody()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		edges, err := referenceDecode(body)
		if err != nil {
			b.Fatal(err)
		}
		sinkEdges = edges
	}
}

package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/race"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/xrand"
)

// spaces is an endless run of JSON whitespace: the cheapest body that
// is still growing when the size limit cuts it off.
type spaces struct{}

var blank = bytes.Repeat([]byte{' '}, 64<<10)

func (spaces) Read(p []byte) (int, error) { return copy(p, blank), nil }

// edgeBodyCases are the odd and malformed /v1/edges bodies: everything
// the scanner in front of encoding/json has to either read identically
// or hand over. Vertices stay below 8.
var edgeBodyCases = []struct {
	name, body string
	// The reply, captured at the commit before the scanner existed: the
	// status, the error string of a refusal (OP stands for the method's
	// verb, insert or delete), the applied count of an ack.
	status  int
	err     string
	applied int
}{
	{"canonical", `{"edges":[{"u":0,"v":1,"w":1},{"u":2,"v":5,"w":0.5}]}`, 200, "", 2},
	{"order uwv", `{"edges":[{"u":0,"w":2,"v":1}]}`, 200, "", 1},
	{"order vuw", `{"edges":[{"v":1,"u":0,"w":2}]}`, 200, "", 1},
	{"order vwu", `{"edges":[{"v":1,"w":2,"u":0}]}`, 200, "", 1},
	{"order wuv", `{"edges":[{"w":2,"u":0,"v":1}]}`, 200, "", 1},
	{"order wvu", `{"edges":[{"w":2,"v":1,"u":0}]}`, 200, "", 1},
	{"omitted w", `{"edges":[{"u":3,"v":4}]}`, 200, "", 1},
	{"whitespace", " {\n\t\"edges\" : [ { \"u\" : 6 , \"v\" : 7 , \"w\" : 1.5e0 } ]\r\n}\n", 200, "", 1},
	{"null w", `{"edges":[{"u":3,"v":4,"w":null}]}`, 200, "", 1},
	{"upper-case keys", `{"edges":[{"U":3,"V":4,"W":2}]}`, 200, "", 1},
	{"upper-case edges", `{"EDGES":[{"u":3,"v":4}]}`, 200, "", 1},
	{"escaped key", `{"edges":[{"\u0075":3,"v":4}]}`, 200, "", 1},
	{"duplicate u", `{"edges":[{"u":7,"u":3,"v":4}]}`, 200, "", 1},
	{"missing v", `{"edges":[{"u":3}]}`, 200, "", 1},
	{"empty edge", `{"edges":[{}]}`, 200, "", 1},
	{"empty edges", `{"edges":[]}`, 200, "", 0},
	{"null edges", `{"edges":null}`, 200, "", 0},
	{"empty object", `{}`, 200, "", 0},
	{"empty labels beside edges", `{"edges":[{"u":0,"v":1}],"labels":[]}`, 200, "", 1},
	{"trailing brace", `{"edges":[{"u":0,"v":1}]}}`, 200, "", 1},
	{"trailing garbage", `{"edges":[{"u":0,"v":1}]} xyz`, 200, "", 1},
	{"second value", `{"edges":[{"u":0,"v":1}]}{"edges":[{"u":2,"v":3}]}`, 200, "", 1},

	{"string u", `{"edges":[{"u":"1","v":2}]}`, 400, `bad request body: json: cannot unmarshal string into Go struct field EdgeWire.edges.u of type uint32`, 0},
	{"key without value", `{"edges":[{"u"}]}`, 400, `bad request body: invalid character '}' after object key`, 0},
	{"u exponent", `{"edges":[{"u":1e2,"v":1}]}`, 400, `bad request body: json: cannot unmarshal number 1e2 into Go struct field EdgeWire.edges.u of type uint32`, 0},
	{"u fraction", `{"edges":[{"u":1.0,"v":1}]}`, 400, `bad request body: json: cannot unmarshal number 1.0 into Go struct field EdgeWire.edges.u of type uint32`, 0},
	{"u leading zero", `{"edges":[{"u":01,"v":1}]}`, 400, `bad request body: invalid character '1' after object key:value pair`, 0},
	{"u minus zero", `{"edges":[{"u":-0,"v":1}]}`, 400, `bad request body: json: cannot unmarshal number -0 into Go struct field EdgeWire.edges.u of type uint32`, 0},
	{"u overflow", `{"edges":[{"u":4294967296,"v":1}]}`, 400, `bad request body: json: cannot unmarshal number 4294967296 into Go struct field EdgeWire.edges.u of type uint32`, 0},
	{"u out of range", `{"edges":[{"u":4294967295,"v":1}]}`, 400, `dyn: OP 0 (4294967295->1) out of range [0,8)`, 0},
	{"w underflow", `{"edges":[{"u":0,"v":1,"w":1e-46}]}`, 400, `edge 0 (0->1): weight 0 is not a positive finite number (omit w for 1)`, 0},
	{"w overflow", `{"edges":[{"u":0,"v":1,"w":3.5e38}]}`, 400, `bad request body: json: cannot unmarshal number 3.5e38 into Go struct field EdgeWire.edges.w of type float32`, 0},
	{"w zero", `{"edges":[{"u":0,"v":1,"w":0}]}`, 400, `edge 0 (0->1): weight 0 is not a positive finite number (omit w for 1)`, 0},
	{"w negative", `{"edges":[{"u":0,"v":1,"w":-1}]}`, 400, `edge 0 (0->1): weight -1 is not a positive finite number (omit w for 1)`, 0},
	{"w bad then syntax error", `{"edges":[{"u":0,"v":1,"w":0},{"u":]}`, 400, `bad request body: invalid character ']' looking for beginning of value`, 0},
	{"w leading zero", `{"edges":[{"u":0,"v":1,"w":01}]}`, 400, `bad request body: invalid character '1' after object key:value pair`, 0},
	{"w bare fraction", `{"edges":[{"u":0,"v":1,"w":.5}]}`, 400, `bad request body: invalid character '.' looking for beginning of value`, 0},
	{"labels beside edges", `{"edges":[{"u":0,"v":1}],"labels":[{"v":1,"class":0}]}`, 400, `labels not accepted on /v1/edges (use /v1/labels)`, 0},
	{"labels only", `{"labels":[{"v":1,"class":0}]}`, 400, `labels not accepted on /v1/edges (use /v1/labels)`, 0},
	{"unknown field", `{"edges":[{"u":0,"v":1,"x":1}]}`, 400, `bad request body: json: unknown field "x"`, 0},
	{"unknown top-level field", `{"edges":[],"edgez":[]}`, 400, `bad request body: json: unknown field "edgez"`, 0},
	{"trailing comma", `{"edges":[{"u":0,"v":1},]}`, 400, `bad request body: invalid character ']' looking for beginning of value`, 0},
	{"truncated", `{"edges":[{"u":0,"v":1},{"u":2`, 400, `bad request body: unexpected EOF`, 0},
	{"truncated after array", `{"edges":[{"u":0,"v":1}]`, 400, `bad request body: unexpected EOF`, 0},
	{"empty body", ``, 400, `bad request body: EOF`, 0},
	{"top-level array", `[{"u":0,"v":1}]`, 400, `bad request body: json: cannot unmarshal array into Go value of type server.MutationRequest`, 0},
	{"top-level null", `null`, 200, "", 0},
	{"over the size limit", "", 400, `bad request body: http: request body too large`, 0},
}

// TestEdgeBodyRepliesPinned holds every reply to an odd /v1/edges body
// to what the server said before it had a hand-written scanner: same
// status, same error text, same applied count, at either shard count
// and on both methods. A DELETE case posts its body first, so a body
// that reads as edges has live edges to delete.
func TestEdgeBodyRepliesPinned(t *testing.T) {
	const n, k = 8, 2
	for _, shards := range []int{1, 2} {
		_, _, base := startShardedServer(t, n, k, shards, dyn.Options{}, server.Options{})
		for _, m := range []struct{ method, op string }{{http.MethodPost, "insert"}, {http.MethodDelete, "delete"}} {
			method, op := m.method, m.op
			for _, tc := range edgeBodyCases {
				var status, applied int
				var msg string
				if tc.name == "over the size limit" {
					// The race detector makes encoding/json's walk over
					// 64 MiB take seconds; once is enough there, since the
					// limit acts before the method or the shards matter.
					if race.Enabled && (shards > 1 || method != http.MethodPost) {
						continue
					}
					status, msg, applied = sendEdges(t, method, base, io.LimitReader(spaces{}, 64<<20+1))
				} else {
					if method == http.MethodDelete {
						sendEdges(t, http.MethodPost, base, strings.NewReader(tc.body))
					}
					status, msg, applied = sendEdges(t, method, base, strings.NewReader(tc.body))
				}
				want := strings.Replace(tc.err, "OP", op, 1)
				if status != tc.status || msg != want || applied != tc.applied {
					t.Errorf("%d shards, %s %q:\n got %d %q applied=%d\nwant %d %q applied=%d",
						shards, method, tc.name, status, msg, applied, tc.status, want, tc.applied)
				}
			}
		}
	}
}

// sendEdges sends one raw /v1/edges request and returns the status,
// the error string of a refusal and the applied count of an ack.
func sendEdges(t *testing.T, method, base string, body io.Reader) (int, string, int) {
	t.Helper()
	req, err := http.NewRequest(method, base+"/v1/edges", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply struct {
		Error   string `json:"error"`
		Applied int    `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("%s reply: %v", method, err)
	}
	return resp.StatusCode, reply.Error, reply.Applied
}

// TestEdgeBodySpellingsAgree: the scanner's spelling of a batch and a
// spelling only encoding/json reads are the same write — same ack, same
// served rows — on one shard and on two.
func TestEdgeBodySpellingsAgree(t *testing.T) {
	const n, k = 8, 2
	canonical := `{"edges":[{"u":0,"v":1,"w":1},{"u":2,"v":5,"w":0.5},{"u":7,"v":3,"w":2.25},{"u":4,"v":4,"w":1}]}`
	other := ` { "edges" : [ {"V":1,"U":0} , {"w":5e-1,"u":9,"v":5,"u":2} ,` +
		` {"u":7,"v":3,"w":2.250} , {"\u0075":4,"v":4,"w":null} ] } trailing`
	for _, shards := range []int{1, 2} {
		var acks [2]server.MutationResponse
		var rows [2][][]float64
		for i, body := range []string{canonical, other} {
			_, c, base := startShardedServer(t, n, k, shards, dyn.Options{}, server.Options{})
			resp, err := http.Post(base+"/v1/edges", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp.Body).Decode(&acks[i]); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%d shards, spelling %d: status %d, decode %v", shards, i, resp.StatusCode, err)
			}
			resp.Body.Close()
			rows[i] = servedRows(t, c, n)
		}
		if !reflect.DeepEqual(acks[0], acks[1]) {
			t.Errorf("%d shards: acks differ: %+v vs %+v", shards, acks[0], acks[1])
		}
		if acks[0].Applied != 4 {
			t.Errorf("%d shards: applied %d, want 4", shards, acks[0].Applied)
		}
		if !reflect.DeepEqual(rows[0], rows[1]) {
			t.Errorf("%d shards: served rows differ:\n%v\n%v", shards, rows[0], rows[1])
		}
		if fmt.Sprint(rows[0][0]) == fmt.Sprint(make([]float64, k)) {
			t.Errorf("%d shards: vertex 0's row is zero; the write did not land", shards)
		}
	}
}

func servedRows(t *testing.T, c *client.Client, n int) [][]float64 {
	t.Helper()
	vs := make([]graph.NodeID, n)
	for v := range vs {
		vs[v] = graph.NodeID(v)
	}
	out, err := c.Embeddings(context.Background(), vs)
	if err != nil {
		t.Fatal(err)
	}
	return out.Rows
}

// TestClientBodyTakesFastPath: what the typed client renders is the
// spelling the scanner reads — for every kind of float32 weight, so no
// caller's batch quietly falls back to encoding/json — and it reads
// back as the exact edges.
func TestClientBodyTakesFastPath(t *testing.T) {
	var body []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ = io.ReadAll(r.Body)
		io.WriteString(w, `{}`)
	}))
	defer ts.Close()
	r := xrand.New(5)
	edges := []graph.Edge{
		{U: 0, V: math.MaxUint32, W: 1}, {U: 1, V: 2, W: 1e-7}, {U: 1, V: 2, W: 16777217},
		{U: 1, V: 2, W: math.MaxFloat32}, {U: 1, V: 2, W: math.SmallestNonzeroFloat32},
	}
	for len(edges) < 10000 {
		if w := math.Float32frombits(r.Uint32() &^ (1 << 31)); w > 0 && w <= math.MaxFloat32 {
			edges = append(edges, graph.Edge{U: r.Uint32(), V: r.Uint32(), W: w})
		}
	}
	if _, err := client.New(ts.URL, ts.Client()).InsertEdges(context.Background(), edges); err != nil {
		t.Fatal(err)
	}
	got, ok := server.ScanMutation(body)
	if !ok {
		t.Fatalf("scanner declined the client's body: %.200s…", body)
	}
	if !reflect.DeepEqual(got, edges) {
		t.Fatal("scanner read different edges than the client sent")
	}
}

package server

import (
	"net/http"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// Content negotiation for the row-carrying endpoints. /v1/snapshot and
// /v1/embeddings default to JSON, the debug path that carries exact
// float64 rows; a client opts into the compact binary frame format by
// listing wire.ContentType in its Accept header. Anything else — no
// header, */*, application/*, malformed values — stays JSON there: a
// client must never receive bytes it did not ask for. /v1/delta has
// one encoding, the frame, and answers 406 to a request that does not
// list it.

// wantsBinary reports whether the request explicitly accepts the
// binary frame content type with a non-zero quality value.
func wantsBinary(r *http.Request) bool {
	for _, hv := range r.Header.Values("Accept") {
		for _, rng := range strings.Split(hv, ",") {
			mt, params, _ := strings.Cut(rng, ";")
			if !strings.EqualFold(strings.TrimSpace(mt), wire.ContentType) {
				continue
			}
			if q, ok := qValue(params); ok && q == 0 {
				continue // explicitly listed, explicitly refused
			}
			return true
		}
	}
	return false
}

// qValue extracts a media range's q parameter.
func qValue(params string) (float64, bool) {
	for _, p := range strings.Split(params, ";") {
		k, v, found := strings.Cut(strings.TrimSpace(p), "=")
		if !found || !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return 0, false // malformed q: ignore it, keep the match
		}
		return q, true
	}
	return 0, false
}

// EndpointWireStats reports one endpoint's response counts and
// bytes-sent, split by wire format. They are the count and sum of the
// route's gee_http_response_bytes{wire="json"|"binary"} histograms, so
// every response on the route counts, error replies included, exactly
// as /metrics shows it.
type EndpointWireStats struct {
	JSONResponses   int64 `json:"json_responses"`
	JSONBytes       int64 `json:"json_bytes"`
	BinaryResponses int64 `json:"binary_responses"`
	BinaryBytes     int64 `json:"binary_bytes"`
}

// WireStats groups the per-endpoint wire split of the row-carrying
// endpoints (the only ones that negotiate a format).
type WireStats struct {
	Snapshot   EndpointWireStats `json:"snapshot"`
	Delta      EndpointWireStats `json:"delta"`
	Embeddings EndpointWireStats `json:"embeddings"`
}

// wireStats reads one route's split from its response-bytes histograms.
func (rm *routeMetrics) wireStats() EndpointWireStats {
	js, bs := rm.bytesJSON.Snapshot(), rm.bytesBinary.Snapshot()
	return EndpointWireStats{
		JSONResponses:   js.Count,
		JSONBytes:       int64(js.Sum),
		BinaryResponses: bs.Count,
		BinaryBytes:     int64(bs.Sum),
	}
}

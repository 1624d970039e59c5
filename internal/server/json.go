package server

import (
	"math"
	"strconv"
)

// queryRequest is the POST /v1/query body:
//
//	{"pairs": [{"u": 0, "v": 99}, ...], "timeout_ms": 500}
//
// timeout_ms is optional; 0 (or absent) means no per-request deadline beyond
// the server's MaxTimeout ceiling, negative is rejected as an invalid option.
type queryRequest struct {
	Pairs     []queryPair `json:"pairs"`
	TimeoutMS int64       `json:"timeout_ms"`
}

// queryPair is one (source, target) query on the wire.
type queryPair struct {
	U int `json:"u"`
	V int `json:"v"`
}

// queryResponse is the 200 body: distances[i] answers pairs[i], null meaning
// unreachable (+Inf does not exist in JSON).
type queryResponse struct {
	Distances []jsonFloat `json:"distances"`
}

// Info is the GET /v1/info body.
type Info struct {
	N           int `json:"n"`
	M           int `json:"m"`
	MaxInflight int `json:"max_inflight"`
	MaxPairs    int `json:"max_pairs"`

	// Artifact identifies the saved artifact the replica serves from, when
	// it was started with -load; nil for replicas that built in-process.
	Artifact *ArtifactInfo `json:"artifact,omitempty"`

	// SSSP advertises the replica's row-fill engine and its auto-tuned Δ,
	// so a fleet operator can confirm every replica answers cold queries the
	// same way; nil when the backend does not expose one (bare test
	// backends).
	SSSP *SSSPInfo `json:"sssp,omitempty"`

	// Memory reports the out-of-core profile of an in-process budgeted
	// build; nil when the replica built fully resident or serves an
	// artifact (no build phase ran here).
	Memory *MemoryInfo `json:"memory,omitempty"`
}

// MemoryInfo is the out-of-core block of /v1/info: the byte budget the
// replica's build ran under and how hard the extmem layer had to work to
// stay inside it. Spilling never changes answers (the spilled build is
// bit-identical to the resident one), so this block is operational truth
// only: it tells a fleet operator which replicas paid disk traffic for
// their build and how much.
type MemoryInfo struct {
	BudgetBytes  int64 `json:"budget_bytes"`
	SpilledBytes int64 `json:"spilled_bytes"`
	RunFiles     int64 `json:"run_files"`
	MergePasses  int64 `json:"merge_passes"`
}

// SSSPInfo is the row-fill engine block of /v1/info: the engine name
// ("delta-stepping") and its auto-tuned bucket width Δ, which depends only
// on the served graph — replicas of one build report equal blocks.
type SSSPInfo struct {
	Engine string  `json:"engine"`
	Delta  float64 `json:"delta,omitempty"`
}

// ArtifactInfo is the artifact identity block of /v1/info: the determinism
// fingerprint stored in the file plus the file's content checksum, so a
// fleet operator (or the CI smoke job) can assert every replica answers
// from the very same build.
type ArtifactInfo struct {
	Algorithm string  `json:"algorithm"`
	Seed      uint64  `json:"seed"`
	K         int     `json:"k"`
	T         int     `json:"t"`
	Gamma     float64 `json:"gamma,omitempty"`
	Workers   int     `json:"workers"`
	Checksum  string  `json:"checksum"`
	Rows      int     `json:"rows"`
	Mapped    bool    `json:"mapped"`
}

// errorBody wraps every non-2xx response.
type errorBody struct {
	Error errorDetail `json:"error"`
}

// errorDetail is the typed error clients classify on: Code is the stable
// vocabulary ("invalid_option", "deadline_exceeded", "canceled", "shed",
// "draining", "bad_request", "method_not_allowed", "internal"); Field and
// Reason carry the *core.OptionError structure when Code is
// "invalid_option".
type errorDetail struct {
	Code   string `json:"code"`
	Field  string `json:"field,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// jsonFloat encodes a distance exactly: the shortest decimal that parses
// back to the identical float64 bit pattern (strconv 'g' with precision -1),
// with +Inf — unreachable — as JSON null. This is what makes the wire
// bit-identity contract (daemon responses == in-process QueryMany) testable:
// encode→decode is lossless.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, +1) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = jsonFloat(math.Inf(+1))
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

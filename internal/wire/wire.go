// Package wire holds the v1 JSON contract — request, response and error
// envelope structs plus the closed set of error codes — in one leaf
// package, so the HTTP service that serves it and the cluster router
// that speaks it to the nodes encode and decode the very same types.
//
// Contract rules for /v1/:
//
//   - Every non-2xx response carries the unified error envelope
//     {"error":{"code":"...","message":"..."}} (ErrorDTO). Codes are a
//     closed set: invalid, not_found, exists, draining, deadline,
//     internal, node_unavailable. Clients branch on code; message is
//     for humans.
//   - Fields are only ever added, never renamed or removed, within v1;
//     incompatible changes get a new path prefix.
//   - Index info (GET /v1/indexes, GET /v1/indexes/{name}) and
//     /v1/stats report persistence state per index: "durable",
//     "wal_records" (upsert batches logged past the snapshot) and
//     "last_snapshot" (omitted until the first checkpoint).
//
// The JSON API is deliberately small: tuples are key + optional payload
// attributes, and a link request probes one index with one or many keys
// as a single session.
//
// Request bodies in the canonical shape json.Marshal emits are read in
// one pass; any other body goes to encoding/json on the same bytes
// (Decode, DecodeReader), so encoding/json defines what every body
// means and every error message, and FuzzDecodeRequest holds the
// one-pass readers to it. A counting pass sizes what a body decodes
// into: one []string arena holding every tuple's attributes or every
// link key, and one string block for the strings that cannot alias the
// body.
//
// StreamCreate is the one tuple reader. It reads a create body whose
// tuples are its last member in two steps: the config fields, and then
// (CreateStream.Tuples) the tuples one at a time into slots the caller
// hands it — the service's are the rows the index takes, a new index's
// decoded on their own goroutine while the bulk load homes them. An
// upsert body, {"tuples":[...]}, is a create body with an empty head
// (CreateStream.TuplesOnly). Its strings alias the body wherever they
// hold no escape (the index copies them in and keeps nothing of the
// body), and only escaped ones take the string block. A body it does
// not take, or refuses partway, goes to encoding/json whole;
// FuzzDecodeRequest holds it to that reading too, and to leaving the
// body's bytes as they were. Decode's scanner reads link bodies, whose
// strings all take the block and never alias the body.
//
// UpsertEncoder writes an upsert body with the bytes json.Marshal
// writes, one tuple at a time: the router's write fan-out, routed
// creates included, goes through it. The other router
// requests (control plane, link) and every response are encoded by
// encoding/json.
package wire

import "adaptivelink"

// TupleDTO is a reference tuple on the wire. ID is kept by an upsert
// and ignored by a create, which numbers its tuples 0, 1, ... in
// arrival order, as FromTuples does in process; a match's ref_id is
// that ID.
type TupleDTO struct {
	ID    int      `json:"id,omitempty"`
	Key   string   `json:"key"`
	Attrs []string `json:"attrs,omitempty"`
}

// CreateIndexRequest is the POST /v1/indexes payload.
type CreateIndexRequest struct {
	Name string `json:"name"`
	// Q, Theta and Measure configure matching (0/"" = defaults).
	Q       int     `json:"q,omitempty"`
	Theta   float64 `json:"theta,omitempty"`
	Measure string  `json:"measure,omitempty"`
	// Shards is the index's shard count (0 = one per server hardware
	// thread).
	Shards int `json:"shards,omitempty"`
	// Profile names the normalization pipeline applied to every key on
	// upsert and probe ("" = index keys verbatim); unknown names are a
	// 400 listing the registry.
	Profile string     `json:"profile,omitempty"`
	Tuples  []TupleDTO `json:"tuples"`
}

// UpsertRequest is the POST /v1/indexes/{name}/upsert payload.
type UpsertRequest struct {
	Tuples []TupleDTO `json:"tuples"`
}

// UpsertResponse reports an upsert's effect.
type UpsertResponse struct {
	Inserted int `json:"inserted"`
	Updated  int `json:"updated"`
	Size     int `json:"size"`
}

// LinkRequestDTO is the POST /v1/link payload. Key and Keys may not
// both be set; TimeoutMillis of 0 selects the service default. Explain
// opts into per-key decision traces in the response (more allocation
// per probe — a debugging tool, not a hot-path default).
type LinkRequestDTO struct {
	Index         string   `json:"index"`
	Key           string   `json:"key,omitempty"`
	Keys          []string `json:"keys,omitempty"`
	Strategy      string   `json:"strategy,omitempty"`
	FutilityK     int      `json:"futility_k,omitempty"`
	TimeoutMillis int      `json:"timeout_ms,omitempty"`
	Explain       bool     `json:"explain,omitempty"`
}

// MatchDTO is one probe result on the wire.
type MatchDTO struct {
	RefID      int      `json:"ref_id"`
	RefKey     string   `json:"ref_key"`
	RefAttrs   []string `json:"ref_attrs,omitempty"`
	Similarity float64  `json:"similarity"`
	Exact      bool     `json:"exact"`
}

// KeyResultDTO pairs one probed key with its matches.
type KeyResultDTO struct {
	Key     string     `json:"key"`
	Matches []MatchDTO `json:"matches"`
}

// LinkResponseDTO is the POST /v1/link response. Decisions appears
// only for explain requests, parallel to Results.
type LinkResponseDTO struct {
	Results   []KeyResultDTO             `json:"results"`
	Session   adaptivelink.SessionStats  `json:"session"`
	Decisions []adaptivelink.KeyDecision `json:"decisions,omitempty"`
}

// ErrorDTO is the unified v1 error envelope.
type ErrorDTO struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the envelope's payload: a machine-branchable code from a
// closed set plus a human-readable message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes of the v1 envelope.
const (
	CodeInvalid  = "invalid"
	CodeNotFound = "not_found"
	CodeExists   = "exists"
	CodeDraining = "draining"
	CodeDeadline = "deadline"
	CodeInternal = "internal"
	// CodeNodeUnavailable (502) marks a routed request that could not
	// complete because a cluster node group had no answering replica;
	// the batch failed as a whole, never with silent partial results.
	CodeNodeUnavailable = "node_unavailable"
)

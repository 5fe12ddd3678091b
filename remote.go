package adaptivelink

import (
	"fmt"

	"adaptivelink/internal/join"
)

// NewRemoteIndex wraps an externally provided Resident — typically a
// cluster fan-out client — in the standard Index facade: the same
// normalization, probe, session and statistics machinery runs over it,
// which is what keeps a routed cluster byte-identical to a single
// process (the router re-uses this exact code path rather than
// re-implementing it). The facade owns normalization: the resident only
// ever sees normalised keys, exactly as a local engine would.
//
// The options must describe the matching configuration the resident
// was built for; Storage must be zero (durability lives on the remote
// nodes, behind the resident).
func NewRemoteIndex(res join.Resident, opts IndexOptions) (*Index, error) {
	if res == nil {
		return nil, fmt.Errorf("adaptivelink: nil resident")
	}
	if opts.Storage.Dir != "" {
		return nil, fmt.Errorf("adaptivelink: a remote index has no local storage; Storage.Dir %q must be empty", opts.Storage.Dir)
	}
	opts, err := opts.resolved()
	if err != nil {
		return nil, err
	}
	return newIndex(res, opts), nil
}

// WithResident returns a shallow view of the index running over a
// different Resident under the same options and normalization pipeline.
// The router uses it to bind a request-scoped resident (carrying the
// request's context and transport-error state) while sharing the
// managed index's configuration. The view is in-memory only — it never
// touches the original's storage — and is as safe for concurrent use as
// its resident.
func (ix *Index) WithResident(res join.Resident) *Index {
	view := &Index{opts: ix.opts, norm: ix.norm}
	view.setResident(res)
	return view
}

package remote

import (
	"fmt"
	"io"
	"net/http"
)

// Gateway is the aggregation tier of the protocol: it fans a shard of
// device traffic into the curator as batched requests — one presence
// registration, one assignment poll and one report upload per timestamp for
// the whole shard — instead of per-device round trips. The batched presence
// and assignment paths are set-or-read operations on the curator and retry
// transient failures under the transport policy; the report upload, like
// the device client's, gets exactly one attempt. Every request is a binary
// frame (wire.go).
//
// A gateway never sees raw locations either: devices (or the replay
// harness standing in for them) hand it locally perturbed OUE bits.
type Gateway struct {
	tr *transport
}

// NewGateway builds a gateway for the curator endpoint.
func NewGateway(baseURL string, httpClient *http.Client) *Gateway {
	return &Gateway{tr: newTransport(baseURL, httpClient)}
}

// SetRetryPolicy overrides the gateway's timeout/retry bounds (zero fields
// keep their defaults). Call before issuing requests.
func (g *Gateway) SetRetryPolicy(p RetryPolicy) { g.tr.policy = p }

// WireMode is the retired wire-encoding knob: the framed endpoints speak only
// binary frames, so there is nothing left to choose.
//
// Deprecated: WireBinary is the only value and Gateway.SetWire ignores it.
type WireMode int

// WireBinary is the only wire encoding.
//
// Deprecated: see WireMode.
const WireBinary WireMode = 0

// SetWire does nothing: every gateway request is a binary frame.
//
// Deprecated: drop the call.
func (g *Gateway) SetWire(WireMode) {}

// AnnouncePresence registers the shard's users for timestamp t in one
// request. Presence is a set operation, so a retried announcement cannot
// double-register anyone.
func (g *Gateway) AnnouncePresence(users []int, t int) error {
	if len(users) == 0 {
		return nil
	}
	frame, err := encodeUsersFrame(frameKindPresence, t, users)
	if err != nil {
		return err
	}
	return g.tr.postFrame("/v1/presence", frame, true, nil)
}

// Assignments polls the sampling assignments for the shard, index-aligned
// with users. The poll is read-only and retries transient failures.
func (g *Gateway) Assignments(users []int, t int) ([]Assignment, error) {
	if len(users) == 0 {
		return nil, nil
	}
	frame, err := encodeUsersFrame(frameKindAssignments, t, users)
	if err != nil {
		return nil, err
	}
	var res assignmentsResult
	if err := g.tr.postFrame("/v1/assignments", frame, true, &res); err != nil {
		return nil, err
	}
	if len(res.as) != len(users) {
		return nil, fmt.Errorf("remote: assignments response carries %d entries for %d users", len(res.as), len(users))
	}
	return res.as, nil
}

// ReportBatch ships the shard's index-list report batch as form 1, which the
// curator packs on receipt — exactly one attempt, all-or-nothing on the
// curator. Devices send packed rows (ReportPacked).
func (g *Gateway) ReportBatch(t int, batch []BatchReport) error {
	if len(batch) == 0 {
		return nil
	}
	frame, err := EncodeSparseReportFrame(t, batch)
	if err != nil {
		return err
	}
	return g.tr.postFrame("/v1/report", frame, false, nil)
}

// ReportPacked ships the shard's bit-packed report batch over a domain of
// size d — exactly one attempt, all-or-nothing on the curator. Each entry
// costs its varint user ID plus the raw ⌈d/8⌉ report bytes; d rides in the
// frame so a curator mid-relayout rejects the stale encoding cleanly.
func (g *Gateway) ReportPacked(t, d int, batch []PackedBatchReport) error {
	if len(batch) == 0 {
		return nil
	}
	frame, err := EncodePackedReportFrame(t, d, batch)
	if err != nil {
		return err
	}
	return g.tr.postFrame("/v1/report", frame, false, nil)
}

// assignmentsResult decodes the assignments response frame.
type assignmentsResult struct {
	as []Assignment
}

func (a *assignmentsResult) decodeFrom(r io.Reader) error {
	body, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	kind, payload, err := decodeFrame(body)
	if err != nil {
		return err
	}
	if kind != frameKindAssignmentsResp {
		return fmt.Errorf("remote: assignments response carries frame kind 0x%02x", kind)
	}
	a.as, err = decodeAssignmentsRespPayload(payload)
	return err
}

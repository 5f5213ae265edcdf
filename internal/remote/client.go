package remote

import (
	"fmt"
	"io"
	"net/http"

	"retrasyn/internal/ldp"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// Client is the device side of the protocol: it owns one user's trajectory
// and never ships a raw location — only presence metadata and locally
// perturbed OUE bits. On the wire a client is a gateway with a shard of
// one: a one-user presence frame, a one-user assignment poll and a
// one-entry report frame. Requests run under the transport's per-attempt
// timeout; the idempotent paths (presence, assignment polls) additionally
// retry transient failures, while the report upload never does — the
// curator accepts one report per assignment, and retrying an ambiguous
// success would be rejected as a duplicate anyway.
type Client struct {
	gw   *Gateway
	user int
	traj trajectory.CellTrajectory
	dom  *transition.Domain
	rng  ldp.Rand
}

// NewClient builds a device client. The domain must match the curator's
// grid (in a deployment the curator publishes the grid parameters).
func NewClient(baseURL string, httpClient *http.Client, user int, traj trajectory.CellTrajectory, dom *transition.Domain, seed uint64) *Client {
	return &Client{
		gw:   NewGateway(baseURL, httpClient),
		user: user,
		traj: traj,
		dom:  dom,
		rng:  ldp.NewRand(seed, seed^0xbb67ae8584caa73b),
	}
}

// SetRetryPolicy overrides the client's timeout/retry bounds (zero fields
// keep their defaults). Call before issuing requests.
func (c *Client) SetRetryPolicy(p RetryPolicy) { c.gw.SetRetryPolicy(p) }

// StateAt returns the client's transition state at timestamp t and whether
// it has one: enter at Start, moves while continuing, and the final
// graceful quit report at End+1.
func (c *Client) StateAt(t int) (transition.State, bool) {
	switch {
	case t == c.traj.Start:
		return transition.EnterState(c.traj.Cells[0]), true
	case t > c.traj.Start && t <= c.traj.End():
		i := t - c.traj.Start
		return transition.MoveState(c.traj.Cells[i-1], c.traj.Cells[i]), true
	case t == c.traj.End()+1:
		return transition.QuitState(c.traj.Cells[len(c.traj.Cells)-1]), true
	default:
		return transition.State{}, false
	}
}

// LocatedAt reports whether the client has a location (counts toward the
// public active population) at t.
func (c *Client) LocatedAt(t int) bool {
	return t >= c.traj.Start && t <= c.traj.End()
}

// AnnouncePresence tells the curator the client has a state at t. Presence
// registration is a set operation on the curator, so it retries safely.
func (c *Client) AnnouncePresence(t int) error {
	if _, ok := c.StateAt(t); !ok {
		return nil
	}
	return c.gw.AnnouncePresence([]int{c.user}, t)
}

// MaybeReport polls the assignment for t and, if sampled, perturbs the
// client's state locally and ships the report. It returns whether a report
// was sent.
func (c *Client) MaybeReport(t int) (bool, error) {
	state, ok := c.StateAt(t)
	if !ok {
		return false, nil
	}
	as, err := c.gw.Assignments([]int{c.user}, t)
	if err != nil {
		return false, err
	}
	a := as[0]
	if !a.Report {
		return false, nil
	}
	idx, ok := c.dom.Index(state)
	if !ok {
		return false, fmt.Errorf("remote: state %v outside domain", state)
	}
	d := c.dom.Size()
	oracle, err := ldp.NewOUE(d, a.Epsilon)
	if err != nil {
		return false, err
	}
	// The perturbed bits are the only thing that leaves the device: one
	// packed ⌈d/8⌉-byte row.
	err = c.gw.ReportPacked(t, d, []PackedBatchReport{{User: c.user, Bits: oracle.PerturbPacked(c.rng, idx).Bytes(d)}})
	return err == nil, err
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck — best-effort connection reuse
	resp.Body.Close()
}

// Coordinator drives the per-timestamp protocol against a curator endpoint
// (in production: a scheduler tick). Plan and Finalize advance the round
// state machine, so they never retry; the read-only paths do.
type Coordinator struct {
	tr *transport
}

// NewCoordinator builds a coordinator for the endpoint.
func NewCoordinator(baseURL string, httpClient *http.Client) *Coordinator {
	return &Coordinator{tr: newTransport(baseURL, httpClient)}
}

// SetRetryPolicy overrides the coordinator's timeout/retry bounds (zero
// fields keep their defaults). Call before issuing requests.
func (co *Coordinator) SetRetryPolicy(p RetryPolicy) { co.tr.policy = p }

// Plan opens the round for timestamp t.
func (co *Coordinator) Plan(t int) error {
	return co.tr.postJSON("/v1/plan", planRequest{T: t})
}

// Finalize closes timestamp t with the public active count.
func (co *Coordinator) Finalize(t, active int) error {
	return co.tr.postJSON("/v1/finalize", finalizeRequest{T: t, Active: active})
}

// Synthetic fetches the current release as the curator's CSV.
func (co *Coordinator) Synthetic() ([]byte, error) {
	var body rawBody
	if err := co.tr.get("/v1/synthetic", &body); err != nil {
		return nil, err
	}
	return body, nil
}

// Stats fetches the curator's activity counters and per-stage timings.
func (co *Coordinator) Stats() (StatsSnapshot, error) {
	var s StatsSnapshot
	err := co.tr.get("/v1/stats", &s)
	return s, err
}

// rawBody captures a non-JSON response verbatim (the /v1/synthetic CSV).
type rawBody []byte

func (b *rawBody) decodeFrom(r io.Reader) error {
	data, err := io.ReadAll(r)
	*b = data
	return err
}

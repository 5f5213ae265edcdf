package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"
)

// RetryPolicy bounds every HTTP request the device client, the gateway and
// the coordinator issue. Before this existed a hung curator stalled a
// device goroutine forever (no per-request deadline) and a transient 5xx
// was terminal; now each attempt carries its own timeout and idempotent
// requests retry with jittered exponential backoff. Non-idempotent
// requests — report uploads, Plan, Finalize — always get exactly one
// attempt: retrying an ambiguous success would double-apply.
type RetryPolicy struct {
	// Timeout bounds each individual HTTP attempt. Default 10s.
	Timeout time.Duration
	// Attempts caps the tries for an idempotent request (first try
	// included). Default 3.
	Attempts int
	// Backoff is the delay before the second attempt; it doubles each
	// retry, with ±50% jitter so synchronized clients don't re-stampede a
	// recovering curator. Default 100ms.
	Backoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Timeout <= 0 {
		p.Timeout = 10 * time.Second
	}
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 100 * time.Millisecond
	}
	return p
}

// transport is the shared request machinery under Client, Gateway and
// Coordinator: JSON control-plane requests and binary frames out,
// per-attempt timeouts, bounded retries, and response bodies included in
// every non-2xx error.
type transport struct {
	baseURL string
	http    *http.Client
	policy  RetryPolicy
}

func newTransport(baseURL string, hc *http.Client) *transport {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &transport{baseURL: baseURL, http: hc}
}

// postJSON marshals body and POSTs it to a control-plane endpoint (plan,
// finalize). Both advance the round state machine, so the request gets
// exactly one attempt.
func (tr *transport) postJSON(path string, body any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return tr.do(http.MethodPost, path, buf, "application/json", false, nil)
}

// postFrame POSTs a binary frame to a framed endpoint. Only set-or-read
// requests (presence announcements, assignment polls) may retry.
func (tr *transport) postFrame(path string, frame []byte, idempotent bool, dst any) error {
	return tr.do(http.MethodPost, path, frame, WireContentType, idempotent, dst)
}

// get GETs path and decodes the response into dst (GETs are always
// idempotent).
func (tr *transport) get(path string, dst any) error {
	return tr.do(http.MethodGet, path, nil, "", true, dst)
}

// do runs the attempt loop. Retries fire on transport errors (including
// per-attempt timeouts) and 5xx responses; a 4xx is a deterministic
// rejection and returns immediately, body included.
func (tr *transport) do(method, path string, body []byte, contentType string, idempotent bool, dst any) error {
	p := tr.policy.withDefaults()
	attempts := 1
	if idempotent {
		attempts = p.Attempts
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			// Exponential backoff with ±50% jitter.
			d := p.Backoff << uint(i-1)
			d = d/2 + time.Duration(rand.Int64N(int64(d)))
			time.Sleep(d)
		}
		retryable, err := tr.attempt(method, path, body, contentType, p.Timeout, dst)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable {
			return err
		}
	}
	if attempts > 1 {
		return fmt.Errorf("remote: giving up after %d attempts: %w", attempts, lastErr)
	}
	return lastErr
}

// attempt issues one request under its own deadline. The bool reports
// whether the failure is worth retrying.
func (tr *transport) attempt(method, path string, body []byte, contentType string, timeout time.Duration, dst any) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, tr.baseURL+path, rd)
	if err != nil {
		return false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := tr.http.Do(req)
	if err != nil {
		return true, fmt.Errorf("remote: %s %s: %w", method, path, err)
	}
	defer drain(resp)
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		err := fmt.Errorf("remote: %s %s → %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
		return resp.StatusCode >= 500, err
	}
	if dst != nil {
		var derr error
		switch d := dst.(type) {
		case interface{ decodeFrom(io.Reader) error }:
			derr = d.decodeFrom(resp.Body) // non-JSON bodies: frames, the synthetic CSV
		default:
			derr = json.NewDecoder(resp.Body).Decode(dst)
		}
		if derr != nil {
			return true, fmt.Errorf("remote: %s %s: decoding response: %w", method, path, derr)
		}
	}
	return false, nil
}

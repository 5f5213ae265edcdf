package remote

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

func fastPolicy() RetryPolicy {
	return RetryPolicy{Timeout: 200 * time.Millisecond, Attempts: 3, Backoff: time.Millisecond}
}

func transportClient(t *testing.T, url string) *Client {
	t.Helper()
	g := testGrid()
	dom := transition.NewDomain(g)
	traj := trajectory.CellTrajectory{Start: 0, Cells: []spatial.Cell{0, 1}}
	c := NewClient(url, nil, 7, traj, dom, 1)
	c.SetRetryPolicy(fastPolicy())
	return c
}

// TestClientRetriesTransient5xx: a curator that throws two 500s before
// recovering must not lose the presence announcement — the idempotent path
// retries through the blip.
func TestClientRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "curator mid-restart", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	if err := transportClient(t, srv.URL).AnnouncePresence(0); err != nil {
		t.Fatalf("presence failed through a transient blip: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestClientTimeoutOnStalledCurator: a hung curator must not stall a device
// goroutine forever — each attempt carries its own deadline.
func TestClientTimeoutOnStalledCurator(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // stall until the test tears down
	}))
	defer srv.Close()
	// Unblock the stalled handler before srv.Close waits on it (LIFO).
	defer close(release)
	c := transportClient(t, srv.URL)
	c.SetRetryPolicy(RetryPolicy{Timeout: 50 * time.Millisecond, Attempts: 2, Backoff: time.Millisecond})
	start := time.Now()
	err := c.AnnouncePresence(0)
	if err == nil {
		t.Fatal("want a timeout error from a stalled curator")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("client stalled %v on a hung curator", elapsed)
	}
}

// TestReportNeverRetried: the report upload is not idempotent (one report
// per assignment), so a failure must surface after exactly one attempt,
// with the curator's response body in the error.
func TestReportNeverRetried(t *testing.T) {
	var reportCalls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/assignments":
			w.Write(encodeAssignmentsRespFrame([]Assignment{{Report: true, Epsilon: 1}}))
		case r.URL.Path == "/v1/report":
			reportCalls.Add(1)
			http.Error(w, "aggregator overloaded", http.StatusInternalServerError)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer srv.Close()
	_, err := transportClient(t, srv.URL).MaybeReport(0)
	if err == nil {
		t.Fatal("want the report error")
	}
	if !strings.Contains(err.Error(), "aggregator overloaded") {
		t.Fatalf("error %q does not include the response body", err)
	}
	if got := reportCalls.Load(); got != 1 {
		t.Fatalf("report POST attempted %d times, want exactly 1", got)
	}
}

// TestNo4xxRetry: a 4xx is a deterministic rejection — retrying it only
// hammers the curator — and the body must ride along in the error.
func TestNo4xxRetry(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "presence for closed timestamp 0", http.StatusConflict)
	}))
	defer srv.Close()
	err := transportClient(t, srv.URL).AnnouncePresence(0)
	if err == nil {
		t.Fatal("want the conflict error")
	}
	if !strings.Contains(err.Error(), "presence for closed timestamp 0") {
		t.Fatalf("error %q does not include the response body", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts for a 4xx, want 1", got)
	}
}

// TestGETErrorsIncludeBody: the GET paths used to drop the response body
// from their errors; every non-2xx now carries it.
func TestGETErrorsIncludeBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no open round for timestamp 0", http.StatusConflict)
	}))
	defer srv.Close()
	if _, err := transportClient(t, srv.URL).MaybeReport(0); err == nil || !strings.Contains(err.Error(), "no open round") {
		t.Fatalf("assignment-poll error %v does not include the response body", err)
	}
	co := NewCoordinator(srv.URL, nil)
	co.SetRetryPolicy(fastPolicy())
	if _, err := co.Synthetic(); err == nil || !strings.Contains(err.Error(), "no open round") {
		t.Fatalf("synthetic-fetch error %v does not include the response body", err)
	}
}

// TestCoordinatorPlanNeverRetried: Plan advances the round state machine; a
// retry of an ambiguously-failed Plan would hit "round already open" and
// turn a success into an error. It must get exactly one attempt.
func TestCoordinatorPlanNeverRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "flaky", http.StatusInternalServerError)
	}))
	defer srv.Close()
	co := NewCoordinator(srv.URL, nil)
	co.SetRetryPolicy(fastPolicy())
	if err := co.Plan(0); err == nil {
		t.Fatal("want the plan error")
	}
	if err := co.Finalize(0, 1); err == nil {
		t.Fatal("want the finalize error")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d attempts for plan+finalize, want 2 (no retries)", got)
	}
}

// TestCoordinatorStatsRetries: the read-only stats poll — what a load
// harness hammers — rides through transient failures.
func TestCoordinatorStatsRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "blip", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"rounds":3,"reports":42,"presence_events":99}`)
	}))
	defer srv.Close()
	co := NewCoordinator(srv.URL, nil)
	co.SetRetryPolicy(fastPolicy())
	s, err := co.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Rounds != 3 || s.Reports != 42 || s.PresenceEvents != 99 {
		t.Fatalf("stats %+v decoded wrong", s)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
}

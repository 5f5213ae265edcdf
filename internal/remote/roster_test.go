package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/core"
	"retrasyn/internal/ldp"
)

// flappingPresence returns who announces presence at each of T rounds. User
// 1000 runs alone first, present at 0, 2, 1+w and 3+w: it quits at 1,
// reappears, quits again at 3, is forgotten and re-admitted at 1+w and
// quits at 2+w. Had the second quit been booked, its status would be
// forgotten at 3+w and the user sampled twice inside one window. Then users
// 0…n−1 flap at random: a present user stays with probability 0.6, an
// absent one appears with probability 0.3, so ids quit and reappear after
// gaps both shorter and longer than w.
func flappingPresence(seed uint64, T, w, n int) [][]int {
	const d = 1000
	presence := make([][]int, T)
	for _, ts := range []int{0, 2, 1 + w, 3 + w} {
		presence[ts] = []int{d}
	}
	rng := ldp.NewRand(seed, 77)
	on := make([]bool, n)
	for ts := 2*w + 4; ts < T; ts++ {
		for id := range on {
			if p := rng.Float64(); on[id] && p >= 0.6 || !on[id] && p < 0.3 {
				on[id] = !on[id]
			}
			if on[id] {
				presence[ts] = append(presence[ts], id)
			}
		}
	}
	return presence
}

// TestRosterWindowPropertyOverHTTP drives random presence sequences with
// flapping and reappearing devices through an httptest curator — snapshotted
// over /v1/snapshot and restored into a fresh server halfway — and requires
// that no user spends more than ε inside any window of w rounds, and that
// the roster holds no more than the present users plus the last w+1 rounds'
// inferred quitters.
func TestRosterWindowPropertyOverHTTP(t *testing.T) {
	const T = 160
	for _, strategy := range []string{core.StrategyUniform, core.StrategyAdaptive} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", strategy, seed), func(t *testing.T) {
				g := testGrid()
				cfg := CuratorConfig{Space: g, Epsilon: 1.0, W: 5, Division: allocation.Population, Strategy: strategy, Lambda: 6, Seed: seed}
				type deployment struct {
					cur *Curator
					url string
					gw  *Gateway
					co  *Coordinator
				}
				serve := func() deployment {
					cur, err := NewCurator(cfg)
					if err != nil {
						t.Fatal(err)
					}
					srv := httptest.NewServer(NewHandler(cur))
					t.Cleanup(srv.Close)
					gw := NewGateway(srv.URL, nil)
					gw.SetRetryPolicy(fastPolicy())
					return deployment{cur, srv.URL, gw, NewCoordinator(srv.URL, nil)}
				}
				dep := serve()
				dep.cur.EnableLedger(T)
				dom := dep.cur.Domain()
				rng := ldp.NewRand(seed, 5)
				presence := flappingPresence(seed, T, cfg.W, 30)
				quits := make([]int, T) // quits[t]: users present at t−1, silent at t
				for ts, users := range presence {
					if ts > 0 {
						quits[ts] = len(presence[ts-1]) - len(intersect(presence[ts-1], users))
					}
					if ts == T/2 {
						resp, err := http.Get(dep.url + "/v1/snapshot")
						if err != nil {
							t.Fatal(err)
						}
						dep = serve()
						resp2, err := http.Post(dep.url+"/v1/restore", "application/json", resp.Body)
						resp.Body.Close()
						if err != nil {
							t.Fatal(err)
						}
						resp2.Body.Close()
						if resp2.StatusCode != http.StatusNoContent {
							t.Fatalf("restore over HTTP: %s", resp2.Status)
						}
					}
					if err := dep.gw.AnnouncePresence(users, ts); err != nil {
						t.Fatalf("t=%d presence: %v", ts, err)
					}
					if err := dep.co.Plan(ts); err != nil {
						t.Fatalf("t=%d plan: %v", ts, err)
					}
					as, err := dep.gw.Assignments(users, ts)
					if err != nil {
						t.Fatalf("t=%d assignments: %v", ts, err)
					}
					var batch []BatchReport
					for i, a := range as {
						if a.Report {
							ones := ldp.MustOUE(dom.Size(), a.Epsilon).Perturb(rng, users[i]%dom.Size())
							batch = append(batch, BatchReport{User: users[i], Ones: ones})
						}
					}
					if len(batch) > 0 {
						if err := dep.gw.ReportBatch(ts, batch); err != nil {
							t.Fatalf("t=%d report: %v", ts, err)
						}
					}
					if err := dep.co.Finalize(ts, len(users)); err != nil {
						t.Fatalf("t=%d finalize: %v", ts, err)
					}
					bound := len(users)
					for s := max(ts-cfg.W, 0); s <= ts; s++ {
						bound += quits[s]
					}
					if held := rosterLen(t, dep.cur); held > bound {
						t.Fatalf("t=%d: roster holds %d users, bound %d", ts, held, bound)
					}
				}
				ledger := dep.cur.Ledger()
				if len(ledger.ReportsByUser[1000]) < 2 && strategy == core.StrategyUniform {
					t.Fatalf("scripted user reported at %v; the run misses the stale-entry sequence", ledger.ReportsByUser[1000])
				}
				if got := ledger.MaxUserWindowSum(cfg.W, func(int) float64 { return cfg.Epsilon }); got > cfg.Epsilon+1e-9 {
					t.Fatalf("a user spent %v inside one window, ε = %v", got, cfg.Epsilon)
				}
			})
		}
	}
}

// intersect returns the ids in both sorted lists.
func intersect(a, b []int) []int {
	var out []int
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// rosterLen counts the users the curator's roster holds.
func rosterLen(t *testing.T, cur *Curator) int {
	t.Helper()
	st, err := cur.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return len(st.Engine.Users.Status)
}

// TestParentMidRoundSnapshotQuitsLater: a snapshot written inside a round by
// a curator that inferred quits at Finalize carries "prev_present", and its
// roster has not yet quitted the users absent in the open round. It still
// restores, and those users are quitted at their next absence, one round
// later than an uninterrupted run quits them.
func TestParentMidRoundSnapshotQuitsLater(t *testing.T) {
	const quitted = 2 // the roster's status code for a quitted user
	open := func(c *Curator, ts int, users ...int) {
		t.Helper()
		if err := c.PresenceBatch(users, ts); err != nil {
			t.Fatal(err)
		}
		if err := c.Plan(ts); err != nil {
			t.Fatal(err)
		}
	}
	cur, _ := NewCurator(testConfig(testGrid()))
	open(cur, 0, 1, 2)
	if err := cur.Finalize(0, 2); err != nil {
		t.Fatal(err)
	}
	open(cur, 1, 1) // user 2 is absent, so Plan quits it
	st, err := cur.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Write the state as the parent did: user 2 not yet quitted, and the
	// presence at 0 on the side.
	users := st.Engine.Users
	users.Quits, users.Status[2] = nil, 0
	if slices.Contains(users.Reported[0], 2) {
		users.Status[2] = 1
	} else {
		users.Active++
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	blob = bytes.Replace(blob, []byte(`"present":`), []byte(`"prev_present":{"1":true,"2":true},"present":`), 1)
	var parent CuratorState
	if err := json.Unmarshal(blob, &parent); err != nil {
		t.Fatal(err)
	}
	restored, _ := NewCurator(testConfig(testGrid()))
	if err := restored.Restore(&parent); err != nil {
		t.Fatalf("parent mid-round snapshot rejected: %v", err)
	}
	if err := restored.Finalize(1, 1); err != nil {
		t.Fatal(err)
	}
	open(restored, 2, 1)
	after, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Engine.Users; got.Status[2] != quitted || len(got.Quits) <= 2 || !slices.Equal(got.Quits[2], []int{2}) {
		t.Fatalf("user 2 absent since 1 not quitted at 2: %+v", got)
	}
}

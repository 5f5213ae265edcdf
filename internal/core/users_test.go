package core

import (
	"reflect"
	"testing"

	"retrasyn/internal/allocation"
)

func TestUserTrackerLifecycle(t *testing.T) {
	u := NewUserTracker(3)
	u.Admit(1)
	u.Admit(2)
	if !isActive(u, 1) || !isActive(u, 2) || u.NumActive() != 2 {
		t.Fatalf("registration failed: active=%d", u.NumActive())
	}
	// Re-registration is a no-op.
	u.Admit(1)
	if u.NumActive() != 2 {
		t.Fatalf("double registration changed count: %d", u.NumActive())
	}

	u.MarkReported(1, 0)
	if isActive(u, 1) || u.NumActive() != 1 {
		t.Fatal("reported user still active")
	}

	// Recycling happens exactly w timestamps later.
	u.BeginTimestamp(1)
	u.BeginTimestamp(2)
	if isActive(u, 1) {
		t.Fatal("user recycled early")
	}
	u.BeginTimestamp(3) // 3 = 0 + w
	if !isActive(u, 1) {
		t.Fatal("user not recycled at t+w")
	}
	if u.NumActive() != 2 {
		t.Fatalf("active = %d after recycle", u.NumActive())
	}
}

func TestUserTrackerQuitNotRecycled(t *testing.T) {
	u := NewUserTracker(2)
	u.Admit(7)
	u.MarkReported(7, 0)
	u.MarkQuitted(7)
	u.BeginTimestamp(2) // would recycle a non-quitted user
	if isActive(u, 7) {
		t.Fatal("quitted user recycled")
	}
	if u.NumActive() != 0 {
		t.Fatalf("active = %d", u.NumActive())
	}
}

func TestUserTrackerQuitWhileActive(t *testing.T) {
	u := NewUserTracker(2)
	u.Admit(3)
	u.MarkQuitted(3)
	if u.NumActive() != 0 {
		t.Fatalf("active = %d", u.NumActive())
	}
	// Quitting twice stays consistent.
	u.MarkQuitted(3)
	if u.NumActive() != 0 {
		t.Fatalf("active after double quit = %d", u.NumActive())
	}
}

func TestUserTrackerWindowOne(t *testing.T) {
	u := NewUserTracker(1)
	u.Admit(1)
	u.MarkReported(1, 0)
	u.BeginTimestamp(1)
	if !isActive(u, 1) {
		t.Fatal("w=1 should recycle at the next timestamp")
	}
}

func TestUserTrackerClampW(t *testing.T) {
	u := NewUserTracker(0) // clamped to 1
	u.Admit(1)
	u.MarkReported(1, 5)
	u.BeginTimestamp(6)
	if !isActive(u, 1) {
		t.Fatal("clamped tracker failed to recycle")
	}
}

func TestUserTrackerManyUsersSlots(t *testing.T) {
	u := NewUserTracker(4)
	for id := 0; id < 100; id++ {
		u.Admit(id)
	}
	// Report 25 users at each of 4 timestamps.
	for tt := 0; tt < 4; tt++ {
		u.BeginTimestamp(tt)
		for id := tt * 25; id < (tt+1)*25; id++ {
			u.MarkReported(id, tt)
		}
	}
	if u.NumActive() != 0 {
		t.Fatalf("active = %d, want 0", u.NumActive())
	}
	// Users recycle in report order as the window slides.
	for tt := 4; tt < 8; tt++ {
		u.BeginTimestamp(tt)
		want := (tt - 3) * 25
		if u.NumActive() != want {
			t.Fatalf("t=%d active = %d, want %d", tt, u.NumActive(), want)
		}
	}
}

// isActive reads a user's status without registering them.
func isActive(u *UserTracker, id int) bool {
	s, ok := u.status[id]
	return ok && s == statusActive
}

// TestUserTrackerAdmit checks Admit against the two-pass semantics it
// replaces: register every present user, then ask whether each is active.
func TestUserTrackerAdmit(t *testing.T) {
	setup := func(u *UserTracker) {
		u.Admit(1) // active
		u.Admit(2) // reported at t=0: inactive
		u.MarkReported(2, 0)
		u.Admit(3) // quitted
		u.MarkQuitted(3)
	}
	tests := []struct {
		name       string
		present    []int
		want       []bool
		wantActive int
	}{
		{"unknown arrives active and counted", []int{9}, []bool{true}, 2},
		{"active stays active", []int{1}, []bool{true}, 1},
		{"inactive", []int{2}, []bool{false}, 1},
		{"quitted", []int{3}, []bool{false}, 1},
		{"unknown twice counts once", []int{9, 9}, []bool{true, true}, 2},
		{"inactive twice", []int{2, 2}, []bool{false, false}, 1},
		{"mixed", []int{3, 9, 1, 2, 8, 9}, []bool{false, true, true, false, true, true}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			u := NewUserTracker(3)
			setup(u)
			var got []bool
			for _, id := range tt.present {
				got = append(got, u.Admit(id))
			}

			ref := NewUserTracker(3)
			setup(ref)
			for _, id := range tt.present {
				if _, ok := ref.status[id]; !ok {
					ref.status[id] = statusActive
					ref.active++
				}
			}
			var want []bool
			for _, id := range tt.present {
				want = append(want, isActive(ref, id))
			}

			if !reflect.DeepEqual(got, tt.want) || !reflect.DeepEqual(want, tt.want) {
				t.Fatalf("Admit = %v, register-then-check = %v, want %v", got, want, tt.want)
			}
			if u.NumActive() != tt.wantActive {
				t.Fatalf("NumActive = %d, want %d", u.NumActive(), tt.wantActive)
			}
			if !reflect.DeepEqual(u.State(), ref.State()) {
				t.Fatalf("roster %+v, register-then-check left %+v", u.State(), ref.State())
			}
		})
	}
}

// TestPlanAdmitsUsersKeepDrops: Plan registers every present user, also the
// ones its keep filter then drops, exactly as when registration was a pass
// of its own ahead of the filter.
func TestPlanAdmitsUsersKeepDrops(t *testing.T) {
	e, err := New(defaultOpts(allocation.Population))
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{10, 11, 12, 13, 14, 15}
	even := func(id int) bool { return id%2 == 0 }
	_, round, err := Plan(e, 0, ids, func(id int) int { return id }, even, nil)
	if err != nil {
		t.Fatal(err)
	}
	if round.Pool != 3 {
		t.Fatalf("pool %d, want the 3 kept users", round.Pool)
	}
	for _, id := range ids {
		if _, ok := e.users.status[id]; !ok {
			t.Fatalf("user %d dropped by keep was never registered", id)
		}
	}
	if e.users.NumActive() != len(ids) {
		t.Fatalf("NumActive = %d, want %d", e.users.NumActive(), len(ids))
	}
}

package core

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"retrasyn/internal/allocation"
)

func TestUserTrackerLifecycle(t *testing.T) {
	u := NewUserTracker(3)
	u.Admit(1)
	u.Admit(2)
	if !isActive(u, 1) || !isActive(u, 2) || numActive(u) != 2 {
		t.Fatalf("registration failed: active=%d", numActive(u))
	}
	// Re-registration is a no-op.
	u.Admit(1)
	if numActive(u) != 2 {
		t.Fatalf("double registration changed count: %d", numActive(u))
	}

	u.MarkReported(1, 0)
	if isActive(u, 1) || numActive(u) != 1 {
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
	if numActive(u) != 2 {
		t.Fatalf("active = %d after recycle", numActive(u))
	}
}

func TestUserTrackerQuitNotRecycled(t *testing.T) {
	u := NewUserTracker(2)
	u.Admit(7)
	u.QuitAbsent(0)
	u.MarkReported(7, 0)
	u.BeginTimestamp(1)
	u.QuitAbsent(1)     // absent at 1: quitted
	u.BeginTimestamp(2) // would recycle a non-quitted user
	if isActive(u, 7) {
		t.Fatal("quitted user recycled")
	}
	if numActive(u) != 0 {
		t.Fatalf("active = %d", numActive(u))
	}
}

func TestUserTrackerQuitWhileActive(t *testing.T) {
	u := NewUserTracker(2)
	u.Admit(3)
	u.QuitAbsent(0)
	u.QuitAbsent(1)
	if numActive(u) != 0 {
		t.Fatalf("active = %d", numActive(u))
	}
	// Back while quitted, then absent again: the second absence books no
	// second quit.
	if u.Admit(3) {
		t.Fatal("quitted user admitted")
	}
	u.QuitAbsent(2)
	u.QuitAbsent(3)
	if n := len(slices.Concat(u.quits...)); numActive(u) != 0 || n != 1 {
		t.Fatalf("active = %d, quit ring holds %d entries after a second absence", numActive(u), n)
	}
}

// TestUserTrackerQuitAbsent: a user admitted at the previous round and not
// at this one is quitted at this one, in id order, whatever order the ids
// arrive in; users present at both rounds, and arrivals, are untouched.
func TestUserTrackerQuitAbsent(t *testing.T) {
	u := NewUserTracker(4)
	for _, id := range []int{9, 4, 7, 1, 6} {
		u.Admit(id)
	}
	u.QuitAbsent(0)
	u.BeginTimestamp(1)
	for _, id := range []int{6, 2, 4} {
		u.Admit(id)
	}
	u.QuitAbsent(1)
	if got, want := u.quits[1], []int{1, 7, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("quitted at 1: %v, want %v", got, want)
	}
	if numActive(u) != 3 {
		t.Fatalf("active = %d, want the 3 present users", numActive(u))
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
	if numActive(u) != 0 {
		t.Fatalf("active = %d, want 0", numActive(u))
	}
	// Users recycle in report order as the window slides.
	for tt := 4; tt < 8; tt++ {
		u.BeginTimestamp(tt)
		want := (tt - 3) * 25
		if numActive(u) != want {
			t.Fatalf("t=%d active = %d, want %d", tt, numActive(u), want)
		}
	}
}

// isActive reads a user's status without registering them.
func isActive(u *UserTracker, id int) bool {
	s, ok := u.status[id]
	return ok && s == statusActive
}

// numActive counts the roster's active users, |U_A|.
func numActive(u *UserTracker) int {
	n := 0
	for _, s := range u.status {
		if s == statusActive {
			n++
		}
	}
	return n
}

// TestUserTrackerAdmit checks Admit against the two-pass semantics it
// replaces: register every present user, then ask whether each is active.
func TestUserTrackerAdmit(t *testing.T) {
	setup := func(u *UserTracker) {
		u.Admit(1) // active
		u.Admit(2) // reported at t=0: inactive
		u.MarkReported(2, 0)
		u.Admit(3)
		u.QuitAbsent(0)
		u.Admit(1)
		u.Admit(2)
		u.QuitAbsent(1) // 3 absent at 1: quitted
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
				}
			}
			var want []bool
			for _, id := range tt.present {
				want = append(want, isActive(ref, id))
			}

			if !reflect.DeepEqual(got, tt.want) || !reflect.DeepEqual(want, tt.want) {
				t.Fatalf("Admit = %v, register-then-check = %v, want %v", got, want, tt.want)
			}
			if numActive(u) != tt.wantActive {
				t.Fatalf("active = %d, want %d", numActive(u), tt.wantActive)
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
	if numActive(e.users) != len(ids) {
		t.Fatalf("active = %d, want %d", numActive(e.users), len(ids))
	}
}

// TestUserTrackerForgetsQuitted: a user quitted at t stays quitted — known
// and never sampleable — through t+w−1 and is forgotten when t+w begins; an
// id that shows up again is then a new arrival.
func TestUserTrackerForgetsQuitted(t *testing.T) {
	const w = 3
	u := NewUserTracker(w)
	u.Admit(5)
	u.QuitAbsent(0)
	u.MarkReported(5, 0)
	u.BeginTimestamp(1)
	u.QuitAbsent(1) // absent at 1: quitted
	for tt := 2; tt <= w; tt++ {
		u.BeginTimestamp(tt)
		if u.Admit(5) {
			t.Fatalf("t=%d: quitted user admitted", tt)
		}
		u.QuitAbsent(tt)
	}
	u.BeginTimestamp(1 + w)
	if _, known := u.status[5]; known {
		t.Fatalf("quitted user still held at t+w: %v", u.State())
	}
	if !u.Admit(5) || numActive(u) != 1 {
		t.Fatalf("reappearing id not a new arrival: active=%d", numActive(u))
	}
}

// TestUserTrackerRequitKeepsForgetRound pins the stale-entry trap: a
// flapping user present at 0, 2, 1+w and 3+w is quitted at 1, comes back
// while quitted, is absent again at 3, is forgotten and re-admitted at 1+w,
// reports, and is quitted at 2+w. A second quit-ring entry from t=3 would
// forget it at 3+w, inside its report's window.
func TestUserTrackerRequitKeepsForgetRound(t *testing.T) {
	const w = 5
	u := NewUserTracker(w)
	present := map[int]bool{0: true, 2: true, 1 + w: true, 3 + w: true}
	for tt := 0; tt <= 3+w; tt++ {
		u.BeginTimestamp(tt)
		if present[tt] {
			admitted := u.Admit(9)
			if want := tt == 0 || tt == 1+w; admitted != want {
				t.Fatalf("t=%d: Admit = %v, want %v", tt, admitted, want)
			}
			if admitted {
				u.MarkReported(9, tt)
			}
		}
		u.QuitAbsent(tt)
	}
	if n := len(slices.Concat(u.quits...)); n != 1 {
		t.Fatalf("quit ring holds %d entries, want 1", n)
	}
}

// TestUserTrackerQuitUnknown: a user forgotten while it was present (back
// while quitted) and then absent is not booked again — the roster does not
// hold it, and the active count is untouched.
func TestUserTrackerQuitUnknown(t *testing.T) {
	const w = 2
	u := NewUserTracker(w)
	for tt, present := range [][]int{{1, 42}, {1}, {1, 42}, {1}} {
		u.BeginTimestamp(tt) // forgets 42, quitted at 1, when t=3 begins
		for _, id := range present {
			u.Admit(id)
		}
		u.QuitAbsent(tt)
	}
	if _, known := u.status[42]; known || numActive(u) != 1 || len(slices.Concat(u.quits...)) != 0 {
		t.Fatalf("forgotten user booked again: %+v", u.State())
	}
}

// TestUserTrackerStateQuitRing: the quit ring is written only while it holds
// a user, survives a JSON round trip, and a ring-less state restores with an
// empty ring.
func TestUserTrackerStateQuitRing(t *testing.T) {
	u := NewUserTracker(3)
	u.Admit(1)
	u.QuitAbsent(3)
	if st := u.State(); st.Quits != nil {
		t.Fatalf("empty ring exported: %v", st.Quits)
	}
	u.QuitAbsent(4)
	blob, err := json.Marshal(u.State())
	if err != nil {
		t.Fatal(err)
	}
	var st UserTrackerState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	v := NewUserTracker(3)
	if err := v.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.State(), u.State()) {
		t.Fatalf("restored %+v, want %+v", v.State(), u.State())
	}
	v.BeginTimestamp(7)
	if _, known := v.status[1]; known {
		t.Fatal("restored ring did not forget the quitter")
	}

	st.Quits = nil // a checkpoint written before the ring existed
	if err := v.Restore(st); err != nil {
		t.Fatal(err)
	}
	v.BeginTimestamp(7)
	if s, known := v.status[1]; !known || s != statusQuitted {
		t.Fatal("ring-less checkpoint's quitter must stay quitted")
	}
}

// restoreRejects restores st into a tracker holding one active user and
// requires an error naming want that leaves the tracker unchanged.
func restoreRejects(t *testing.T, st UserTrackerState, want string) {
	t.Helper()
	u := NewUserTracker(len(st.Reported))
	u.Admit(100)
	before := u.State()
	err := u.Restore(st)
	if err == nil {
		t.Fatal("corrupt roster restored")
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	if !reflect.DeepEqual(u.State(), before) {
		t.Fatal("rejected restore changed the tracker")
	}
}

func validRoster() UserTrackerState {
	return UserTrackerState{
		W:        3,
		Status:   map[int]uint8{1: uint8(statusActive), 2: uint8(statusInactive), 3: uint8(statusQuitted), 4: uint8(statusQuitted)},
		Reported: [][]int{{2}, nil, nil},
		Quits:    [][]int{nil, {3}, {4}},
		Active:   1,
	}
}

func TestUserTrackerRestoreRejectsActiveCount(t *testing.T) {
	st := validRoster()
	st.Active = 2
	restoreRejects(t, st, "active count 2 ≠ 1")
}

func TestUserTrackerRestoreRejectsRingLength(t *testing.T) {
	st := validRoster()
	st.Quits = st.Quits[:2]
	restoreRejects(t, st, "quit ring has 2 slots ≠ w 3")
}

func TestUserTrackerRestoreRejectsRingNotQuitted(t *testing.T) {
	st := validRoster()
	st.Quits[0] = []int{2}
	restoreRejects(t, st, "user 2, which is not quitted")
	st.Quits[0] = []int{77}
	restoreRejects(t, st, "user 77, which is not quitted")
}

func TestUserTrackerRestoreRejectsRingDuplicate(t *testing.T) {
	st := validRoster()
	st.Quits[0] = []int{4}
	restoreRejects(t, st, "user 4 twice")
}

func TestUserTrackerRestoreRejectsReportedUnknown(t *testing.T) {
	st := validRoster()
	st.Reported[1] = []int{77}
	restoreRejects(t, st, "reported ring holds user 77, which is not inactive or quitted")
}

func TestUserTrackerRestoreRejectsReportedActive(t *testing.T) {
	st := validRoster()
	st.Reported[1] = []int{1}
	restoreRejects(t, st, "reported ring holds user 1, which is not inactive or quitted")
	// An inactive user that is never recycled, beside an active one in the
	// ring and a stranger.
	st = UserTrackerState{W: 3, Status: map[int]uint8{7: uint8(statusInactive), 8: uint8(statusActive)},
		Reported: [][]int{{8}, {9}, nil}, Active: 1}
	restoreRejects(t, st, "reported ring holds user 8")
}

func TestUserTrackerRestoreRejectsReportedDuplicate(t *testing.T) {
	st := validRoster()
	st.Reported[2] = []int{2}
	restoreRejects(t, st, "reported ring holds user 2 twice")
}

func TestUserTrackerRestoreRejectsInactiveUnslotted(t *testing.T) {
	st := validRoster()
	st.Reported[0] = nil
	restoreRejects(t, st, "inactive user 2 sits in no reported slot")
}

func TestUserTrackerRestoreValidRoster(t *testing.T) {
	u := NewUserTracker(3)
	if err := u.Restore(validRoster()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u.State(), validRoster()) {
		t.Fatalf("restored %+v", u.State())
	}
	// A quitted user may still await its recycle slot.
	st := validRoster()
	st.Reported[1] = []int{3}
	if err := u.Restore(st); err != nil {
		t.Fatal(err)
	}
}

// TestUserTrackerRestoreQuitsAbsent: a restored tracker takes the users it
// does not hold as quitted to be the previous round's admissions, so the
// next round quits those of them that are absent.
func TestUserTrackerRestoreQuitsAbsent(t *testing.T) {
	u := NewUserTracker(3)
	if err := u.Restore(validRoster()); err != nil {
		t.Fatal(err)
	}
	u.BeginTimestamp(4)
	u.Admit(1)
	u.QuitAbsent(4)
	if u.status[2] != statusQuitted || !slices.Equal(u.quits[1], []int{2}) {
		t.Fatalf("absent user 2 not quitted at 4: %+v", u.State())
	}
}

func TestFirstRepeat(t *testing.T) {
	id := func(v int) int { return v }
	tests := []struct {
		ids  []int
		want int
	}{
		{nil, -1},
		{[]int{4}, -1},
		{[]int{1, 2, 3, 9}, -1},
		{[]int{9, 3, 1, 2}, -1},
		{[]int{1, 2, 2, 3}, 2},
		// The first repeat in input order, not the smallest repeated id.
		{[]int{3, 5, 5, 3}, 2},
		{[]int{5, 3, 3, 5}, 2},
		{[]int{7, 1, 2, 7}, 3},
	}
	var scratch []int
	for _, tt := range tests {
		var got int
		if got, scratch = FirstRepeat(tt.ids, id, scratch); got != tt.want {
			t.Fatalf("FirstRepeat(%v) = %d, want %d", tt.ids, got, tt.want)
		}
	}
}

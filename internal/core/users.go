package core

import (
	"fmt"
	"slices"
)

// userStatus mirrors Algorithm 1's user lifecycle: active users are eligible
// for sampling; inactive users have reported within the current window and
// await recycling; quitted users have stopped sharing.
type userStatus uint8

const (
	statusActive userStatus = iota
	statusInactive
	statusQuitted
)

// UserTracker maintains the dynamic active user set for population-division
// allocation (paper §III-E/F): it registers arrivals, marks reporters
// inactive, recycles them once they fall outside the sliding window
// (Alg. 1 line 9), and quits the users who stop showing up (QuitAbsent).
//
// The roster holds only the users who can still matter: a quitted user is
// forgotten w timestamps after its quit. Its last report lies before the
// quit, so no window that contains a later round also contains that report;
// an id that shows up again is a new arrival.
type UserTracker struct {
	w      int
	status map[int]userStatus
	// reported[t % w] holds the users who reported at timestamp t; they are
	// recycled when timestamp t+w begins.
	reported [][]int
	// quits[t % w] holds the users who quitted at timestamp t; they are
	// forgotten when timestamp t+w begins. A user has at most one entry.
	quits [][]int
	// This round's admitted ids, and the previous round's, sorted.
	admitted, last []int
}

// NewUserTracker creates a tracker for window size w.
func NewUserTracker(w int) *UserTracker {
	if w < 1 {
		w = 1
	}
	return &UserTracker{
		w:        w,
		status:   make(map[int]userStatus),
		reported: make([][]int, w),
		quits:    make([][]int, w),
	}
}

// BeginTimestamp recycles the users who reported at t−w — inactive users
// become active again, quitted users stay quitted — and then forgets the
// users who quitted at t−w.
func (u *UserTracker) BeginTimestamp(t int) {
	slot := t % u.w
	for _, id := range u.reported[slot] {
		if u.status[id] == statusInactive {
			u.status[id] = statusActive
		}
	}
	u.reported[slot] = u.reported[slot][:0]
	for _, id := range u.quits[slot] {
		if u.status[id] == statusQuitted {
			delete(u.status, id)
		}
	}
	u.quits[slot] = u.quits[slot][:0]
}

// Admit registers a user on first sight — unknown users arrive active
// (Alg. 1 line 7) — notes it present at this round and reports whether it
// is eligible for sampling: one roster lookup per present user per round.
func (u *UserTracker) Admit(id int) bool {
	u.admitted = append(u.admitted, id)
	s, ok := u.status[id]
	if !ok {
		s = statusActive
		u.status[id] = s
	}
	return s == statusActive
}

// MarkReported transitions a sampled user to inactive until recycled at
// t+w (Alg. 1 line 14).
func (u *UserTracker) MarkReported(id, t int) {
	u.status[id] = statusInactive
	slot := t % u.w
	u.reported[slot] = append(u.reported[slot], id)
}

// QuitAbsent ends round t's admissions with the quit rule (Alg. 1 line 8):
// a user admitted at the previous round and not at t is quitted at t, never
// recycled, and forgotten when t+w begins. Both rounds' ids are sorted
// (linear on sorted input) and merged, so quitters are booked in id order.
// A user already quitted or forgotten books nothing: a second ring entry
// would move its forgetting into the window of a later report.
func (u *UserTracker) QuitAbsent(t int) {
	slices.Sort(u.admitted)
	i := 0
	for _, id := range u.last {
		for i < len(u.admitted) && u.admitted[i] < id {
			i++
		}
		if i < len(u.admitted) && u.admitted[i] == id {
			continue
		}
		if s, ok := u.status[id]; ok && s != statusQuitted {
			u.status[id] = statusQuitted
			u.quits[t%u.w] = append(u.quits[t%u.w], id)
		}
	}
	u.last, u.admitted = u.admitted, u.last[:0]
}

// FirstRepeat returns the index of the first item whose id repeats an
// earlier item's, or -1 when every id is distinct. It sorts a copy of the
// ids in scratch, caller-owned and returned grown for reuse, and scans
// neighbours; ids that arrive sorted cost one linear pass. Only when a
// repeat exists does it walk items again to find the first one in input
// order.
func FirstRepeat[T any](items []T, id func(T) int, scratch []int) (int, []int) {
	scratch = scratch[:0]
	for _, it := range items {
		scratch = append(scratch, id(it))
	}
	slices.Sort(scratch)
	for i := 1; i < len(scratch); i++ {
		if scratch[i] == scratch[i-1] {
			seen := make(map[int]struct{}, len(items))
			for j, it := range items {
				if _, dup := seen[id(it)]; dup {
					return j, scratch
				}
				seen[id(it)] = struct{}{}
			}
		}
	}
	return -1, scratch
}

// UserTrackerState is the serializable form of a UserTracker. Quits is
// written only while some user awaits forgetting; a checkpoint without it
// (written before quitted users were forgotten) restores with an empty ring,
// and its quitted users stay quitted for good.
type UserTrackerState struct {
	W        int           `json:"w"`
	Status   map[int]uint8 `json:"status"`
	Reported [][]int       `json:"reported"`
	Quits    [][]int       `json:"quits,omitempty"`
	Active   int           `json:"active"`
}

// State exports a deep copy of the tracker; Active counts the active users.
func (u *UserTracker) State() UserTrackerState {
	st := UserTrackerState{
		W:        u.w,
		Status:   make(map[int]uint8, len(u.status)),
		Reported: make([][]int, len(u.reported)),
	}
	for id, s := range u.status {
		st.Status[id] = uint8(s)
		if s == statusActive {
			st.Active++
		}
	}
	for i, ids := range u.reported {
		st.Reported[i] = append([]int(nil), ids...)
	}
	if slices.ContainsFunc(u.quits, func(ids []int) bool { return len(ids) > 0 }) {
		st.Quits = make([][]int, len(u.quits))
		for i, ids := range u.quits {
			st.Quits[i] = append([]int(nil), ids...)
		}
	}
	return st
}

// Restore replaces the tracker's state with a previously exported one. The
// window size must match, every status must be known, Active must count the
// active users, the reported ring must hold each inactive user and quit ring
// each quitted one, and no user twice. The users not quitted come back as
// the previous round's admissions. On error the tracker is unchanged.
func (u *UserTracker) Restore(st UserTrackerState) error {
	if st.W != u.w || len(st.Reported) != u.w {
		return fmt.Errorf("core: UserTracker.Restore window %d (slots %d) ≠ w %d", st.W, len(st.Reported), u.w)
	}
	if st.Quits != nil && len(st.Quits) != u.w {
		return fmt.Errorf("core: UserTracker.Restore quit ring has %d slots ≠ w %d", len(st.Quits), u.w)
	}
	status := make(map[int]userStatus, len(st.Status))
	var last []int
	active := 0
	for id, s := range st.Status {
		if s > uint8(statusQuitted) {
			return fmt.Errorf("core: UserTracker.Restore invalid status %d for user %d", s, id)
		}
		if userStatus(s) == statusActive {
			active++
		}
		if status[id] = userStatus(s); status[id] != statusQuitted {
			last = append(last, id)
		}
	}
	if active != st.Active {
		return fmt.Errorf("core: UserTracker.Restore active count %d ≠ %d active users in the roster", st.Active, active)
	}
	reported, err := ringIDs("reported", "inactive or quitted", st.Reported, status, func(s userStatus) bool { return s != statusActive })
	if err != nil {
		return err
	}
	if _, err := ringIDs("quit", "quitted", st.Quits, status, func(s userStatus) bool { return s == statusQuitted }); err != nil {
		return err
	}
	for _, id := range last {
		if _, in := slices.BinarySearch(reported, id); status[id] == statusInactive && !in {
			return fmt.Errorf("core: UserTracker.Restore inactive user %d sits in no reported slot", id)
		}
	}
	slices.Sort(last)
	u.status, u.last, u.admitted = status, last, u.admitted[:0]
	for i := range u.reported {
		u.reported[i] = append([]int(nil), st.Reported[i]...)
		u.quits[i] = nil
		if st.Quits != nil {
			u.quits[i] = append([]int(nil), st.Quits[i]...)
		}
	}
	return nil
}

// ringIDs returns a ring's ids, sorted, after checking that each names a
// roster user whose status passes ok, and that none appears twice.
func ringIDs(ring, want string, slots [][]int, status map[int]userStatus, ok func(userStatus) bool) ([]int, error) {
	ids := slices.Concat(slots...)
	for _, id := range ids {
		if s, known := status[id]; !known || !ok(s) {
			return nil, fmt.Errorf("core: UserTracker.Restore %s ring holds user %d, which is not %s", ring, id, want)
		}
	}
	i, sorted := FirstRepeat(ids, func(id int) int { return id }, nil)
	if i >= 0 {
		return nil, fmt.Errorf("core: UserTracker.Restore %s ring holds user %d twice", ring, ids[i])
	}
	return sorted, nil
}

package core

import "fmt"

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
// (Alg. 1 line 9), and retires quitted users.
type UserTracker struct {
	w      int
	status map[int]userStatus
	// reported[t % w] holds the users who reported at timestamp t; they are
	// recycled when timestamp t+w begins.
	reported [][]int
	active   int
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
	}
}

// BeginTimestamp recycles the users who reported at t−w: inactive users
// become active again; quitted users stay quitted.
func (u *UserTracker) BeginTimestamp(t int) {
	slot := t % u.w
	for _, id := range u.reported[slot] {
		if u.status[id] == statusInactive {
			u.status[id] = statusActive
			u.active++
		}
	}
	u.reported[slot] = u.reported[slot][:0]
}

// Admit registers a user on first sight — unknown users arrive active
// (Alg. 1 line 7) — and reports whether the user is eligible for sampling:
// one roster lookup per present user per round.
func (u *UserTracker) Admit(id int) bool {
	s, ok := u.status[id]
	if !ok {
		s = statusActive
		u.status[id] = s
		u.active++
	}
	return s == statusActive
}

// NumActive returns |U_A|.
func (u *UserTracker) NumActive() int { return u.active }

// MarkReported transitions a sampled user to inactive until recycled at
// t+w (Alg. 1 line 14).
func (u *UserTracker) MarkReported(id, t int) {
	if u.status[id] == statusActive {
		u.active--
	}
	u.status[id] = statusInactive
	slot := t % u.w
	u.reported[slot] = append(u.reported[slot], id)
}

// MarkQuitted retires a user permanently (Alg. 1 line 8). Quitted users are
// never recycled.
func (u *UserTracker) MarkQuitted(id int) {
	if u.status[id] == statusActive {
		u.active--
	}
	u.status[id] = statusQuitted
}

// UserTrackerState is the serializable form of a UserTracker.
type UserTrackerState struct {
	W        int           `json:"w"`
	Status   map[int]uint8 `json:"status"`
	Reported [][]int       `json:"reported"`
	Active   int           `json:"active"`
}

// State exports a deep copy of the tracker.
func (u *UserTracker) State() UserTrackerState {
	st := UserTrackerState{
		W:        u.w,
		Status:   make(map[int]uint8, len(u.status)),
		Reported: make([][]int, len(u.reported)),
		Active:   u.active,
	}
	for id, s := range u.status {
		st.Status[id] = uint8(s)
	}
	for i, ids := range u.reported {
		st.Reported[i] = append([]int(nil), ids...)
	}
	return st
}

// Restore replaces the tracker's state with a previously exported one. The
// window size must match.
func (u *UserTracker) Restore(st UserTrackerState) error {
	if st.W != u.w || len(st.Reported) != u.w {
		return fmt.Errorf("core: UserTracker.Restore window %d (slots %d) ≠ w %d", st.W, len(st.Reported), u.w)
	}
	u.status = make(map[int]userStatus, len(st.Status))
	for id, s := range st.Status {
		if s > uint8(statusQuitted) {
			return fmt.Errorf("core: UserTracker.Restore invalid status %d for user %d", s, id)
		}
		u.status[id] = userStatus(s)
	}
	for i := range u.reported {
		u.reported[i] = append([]int(nil), st.Reported[i]...)
	}
	u.active = st.Active
	return nil
}

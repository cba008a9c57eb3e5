package rsm

import (
	"errors"
	"strings"
)

// notLeaderPrefix is the leader-forwarding contract: rpc transports handler
// errors as bare strings, so clients on the far side of a Call recognise a
// redirect by this prefix and extract the hint after "leader=". Keep the
// format stable — Client parses it for the coordinator, DLM, and sequencer.
const (
	notLeaderPrefix = "rsm: not leader"
	leaderHintMark  = "leader="
)

// NotLeaderError is returned by Propose (and by service front ends) on a
// non-leader member. LeaderAddr is a hint, possibly empty right after an
// election.
type NotLeaderError struct {
	LeaderID   string
	LeaderAddr string
}

func (e *NotLeaderError) Error() string {
	if e.LeaderAddr == "" {
		return notLeaderPrefix
	}
	return notLeaderPrefix + "; " + leaderHintMark + e.LeaderAddr
}

// IsNotLeader reports whether err is a leader redirect, including one that
// crossed an rpc boundary and arrived as a plain string error.
func IsNotLeader(err error) bool {
	if err == nil {
		return false
	}
	var nl *NotLeaderError
	if errors.As(err, &nl) {
		return true
	}
	return strings.Contains(err.Error(), notLeaderPrefix)
}

// LeaderHint extracts the redirect address from a not-leader error, or ""
// when the rejecting member did not know the leader.
func LeaderHint(err error) string {
	if err == nil {
		return ""
	}
	var nl *NotLeaderError
	if errors.As(err, &nl) {
		return nl.LeaderAddr
	}
	s := err.Error()
	i := strings.Index(s, leaderHintMark)
	if i < 0 {
		return ""
	}
	hint := s[i+len(leaderHintMark):]
	if j := strings.IndexAny(hint, " ;"); j >= 0 {
		hint = hint[:j]
	}
	return hint
}

var (
	// ErrStopped is returned by operations on a closed Node.
	ErrStopped = errors.New("rsm: node stopped")
	// ErrProposeTimeout means the command was appended but its commit was
	// not observed in time; it may still commit later, so callers must
	// treat the outcome as unknown (the same ambiguity any distributed
	// write has on timeout).
	ErrProposeTimeout = errors.New("rsm: propose timed out")
	// ErrLostLeadership means leadership changed before the proposed
	// command committed; like a timeout, the command may or may not
	// survive under the new leader.
	ErrLostLeadership = errors.New("rsm: leadership lost before commit")
)

package ctlplane

import (
	"fmt"

	"dvemig/internal/simtime"
)

// AuditLive checks the control plane's safety invariants against the
// live object stores — callable mid-run at every sample boundary, not
// just at teardown, so a violation surfaces inside the window it
// happened in. The checks are chosen to hold at *any* instant of a
// healthy run (unlike the teardown audits, which may only hold at
// quiescence):
//
//   - split-brain: two live controllers must never both act as primary
//     under the same epoch (different epochs are a legal transient
//     during a partition — the higher epoch fences the lower on the
//     next hello);
//   - duplicate in-flight: the authoritative store must never drive
//     two non-terminal objects for one service;
//   - stuck objects: every object is bounded by deadline + cancel
//     grace; one still non-terminal slack past that budget means the
//     reconcile loop lost it.
//
// Violation strings are stable across windows (no ever-growing ages),
// so callers can deduplicate a persisting violation by message.
func AuditLive(a, b *Controller, slack simtime.Duration) []string {
	var v []string
	if a != nil && b != nil && a.Primary && b.Primary &&
		a.Node.Alive && b.Node.Alive && a.epoch == b.epoch {
		v = append(v, fmt.Sprintf("split-brain: both controllers primary at epoch %d", a.epoch))
	}
	auth := Authoritative(a, b)
	if auth == nil {
		return v // takeover blind window: no live primary to audit against
	}
	now := auth.Node.Sched.Now()
	seen := make(map[string]uint64, len(auth.inflight))
	for _, id := range auth.order {
		o := auth.objects[id]
		if o == nil || o.Terminal() {
			continue
		}
		name := o.Spec.Name
		if prev, dup := seen[name]; dup {
			v = append(v, fmt.Sprintf("duplicate in-flight objects for %q: #%d and #%d", name, prev, id))
		} else {
			seen[name] = id
		}
		budget := auth.Config.deadline(o) + auth.Config.CancelGrace + slack
		if now-o.Status.SubmitAt > budget {
			v = append(v, fmt.Sprintf("object #%d (%q) stuck non-terminal past submit+%v", id, name, budget))
		}
	}
	return v
}

// Authoritative picks the controller whose store reflects cluster truth
// right now: the live primary with the highest epoch (the one fenced
// agents obey when a partition has two). Nil in a takeover blind window.
func Authoritative(cs ...*Controller) *Controller {
	var pick *Controller
	for _, c := range cs {
		if c != nil && c.Primary && c.Node.Alive && (pick == nil || c.epoch > pick.epoch) {
			pick = c
		}
	}
	return pick
}

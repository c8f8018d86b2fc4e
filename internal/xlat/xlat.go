// Package xlat implements local address translation for in-cluster
// connection migration (§III-C, §V-D) and the transd daemon that installs
// translation filters on request.
//
// When process P migrates from IP1 to IP2 while holding a connection to a
// peer on IP3, the peer's host enables a translation filter: outgoing
// packets addressed to IP1 are rewritten to IP2 (including replacing the
// inherited IP destination cache entry and fixing the checksum), and
// incoming packets from IP2 have their source rewritten back to IP1 — so
// the peer socket never notices the move.
package xlat

import (
	"fmt"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
)

// Rule describes one translated connection from the peer host's point of
// view: the peer's socket talks to OldAddr; the connection now really
// lives at NewAddr.
type Rule struct {
	Proto      byte
	OldAddr    netsim.Addr // pre-migration address of the remote endpoint
	NewAddr    netsim.Addr // node the socket migrated to
	LocalPort  uint16      // the peer socket's local port
	RemotePort uint16      // the migrated socket's port

	// Epoch is the ownership epoch of the service the rule redirects to.
	// Installs stamped with an epoch below an already-installed rule for
	// the same flow (or below a port fence) are stale and rejected; a
	// higher epoch supersedes — the retarget is the GC of the old rule.
	// Zero is the legacy unfenced epoch.
	Epoch uint64
}

// String renders the rule for logs and examples.
func (r Rule) String() string {
	return fmt.Sprintf("xlat %d: %s:%d <-> local:%d now at %s",
		r.Proto, r.OldAddr, r.RemotePort, r.LocalPort, r.NewAddr)
}

type activeRule struct {
	Rule
	newDst *netsim.DstEntry
	// TranslatedOut / TranslatedIn count rewritten packets.
	TranslatedOut, TranslatedIn uint64
}

// Translator owns the translation rules of one node and fills the stack's
// translation slot (NF_INET_LOCAL_OUT and NF_INET_LOCAL_IN) while it has
// any.
type Translator struct {
	stack *netstack.Stack
	rules []*activeRule

	// fences maps a migrated service's port (Rule.RemotePort) to the
	// minimum acceptable rule epoch, raised by FenceRemotePort when the
	// node learns ownership of the service moved to a higher epoch.
	fences map[uint16]uint64

	// Stale counts installs rejected for carrying a superseded epoch.
	Stale uint64
}

// NewTranslator creates the translator for a node's stack.
func NewTranslator(st *netstack.Stack) *Translator {
	return &Translator{stack: st, fences: make(map[uint16]uint64)}
}

// Install activates a rule. It builds an accurate destination cache entry
// for the new address up front — rewriting only the IP header would still
// deliver to the old node, because the output path forwards by the dst
// entry inherited from the socket (§V-D).
func (t *Translator) Install(r Rule) error {
	if min, fenced := t.fences[r.RemotePort]; fenced && r.Epoch < min {
		t.Stale++
		return fmt.Errorf("xlat: install for port %d fenced (epoch %d < %d)",
			r.RemotePort, r.Epoch, min)
	}
	// A migration back to the connection's original home makes the rule
	// an identity mapping: drop any existing rule instead.
	if r.OldAddr == r.NewAddr {
		return t.removeMatch(r)
	}
	for i, ar := range t.rules {
		if ar.Rule == r {
			return nil // idempotent
		}
		if sameMatch(ar.Rule, r) {
			if r.Epoch < ar.Epoch {
				// A superseded owner is trying to redirect the flow to
				// itself; the installed rule belongs to a higher epoch.
				t.Stale++
				return fmt.Errorf("xlat: stale install for %v (epoch %d < %d)",
					r, r.Epoch, ar.Epoch)
			}
			// The connection migrated again: retarget the existing rule.
			// Replacing it is the GC of the superseded-epoch rule.
			dst, err := t.stack.MakeDst(r.NewAddr)
			if err != nil {
				return fmt.Errorf("xlat: no route to new address: %w", err)
			}
			t.rules[i] = &activeRule{Rule: r, newDst: dst}
			return nil
		}
	}
	dst, err := t.stack.MakeDst(r.NewAddr)
	if err != nil {
		return fmt.Errorf("xlat: no route to new address: %w", err)
	}
	if len(t.rules) == 0 {
		t.stack.SetRewriter(t)
	}
	t.rules = append(t.rules, &activeRule{Rule: r, newDst: dst})
	return nil
}

// sameMatch reports whether two rules select the same packets (they may
// differ in NewAddr and Epoch).
func sameMatch(a, b Rule) bool {
	return a.Proto == b.Proto && a.OldAddr == b.OldAddr &&
		a.LocalPort == b.LocalPort && a.RemotePort == b.RemotePort
}

// Remove deactivates a rule. Exact match, epoch included: a rollback from
// a superseded owner cannot remove the rule a higher epoch installed.
func (t *Translator) Remove(r Rule) {
	for i, ar := range t.rules {
		if ar.Rule == r {
			t.drop(i)
			break
		}
	}
}

// removeMatch drops a sameMatch rule at or below r's epoch (identity
// installs); dropping a higher-epoch rule on a stale requester's word
// would un-fence the flow, so that is refused.
func (t *Translator) removeMatch(r Rule) error {
	for i, ar := range t.rules {
		if sameMatch(ar.Rule, r) {
			if r.Epoch < ar.Epoch {
				t.Stale++
				return fmt.Errorf("xlat: stale identity install for %v (epoch %d < %d)",
					r, r.Epoch, ar.Epoch)
			}
			t.drop(i)
			break
		}
	}
	return nil
}

// FenceRemotePort raises the minimum acceptable rule epoch for a
// migrated service's port and garbage-collects installed rules below it.
// Returns the number of rules dropped.
func (t *Translator) FenceRemotePort(port uint16, ep uint64) int {
	if cur := t.fences[port]; ep <= cur {
		return 0
	}
	t.fences[port] = ep
	dropped := 0
	kept := t.rules[:0]
	for _, ar := range t.rules {
		if ar.RemotePort == port && ar.Epoch < ep {
			t.Stale++
			dropped++
			continue
		}
		kept = append(kept, ar)
	}
	t.rules = kept
	t.emptySlot()
	return dropped
}

// PortFence returns the current fence epoch for a service port (0 =
// unfenced).
func (t *Translator) PortFence(port uint16) uint64 { return t.fences[port] }

// drop removes rule i, and leaves the translation slot with the last rule.
func (t *Translator) drop(i int) {
	t.rules = append(t.rules[:i], t.rules[i+1:]...)
	t.emptySlot()
}

func (t *Translator) emptySlot() {
	if len(t.rules) == 0 {
		t.stack.SetRewriter(nil)
	}
}

// Rules returns active rules (for the conductor's bookkeeping).
func (t *Translator) Rules() []Rule {
	out := make([]Rule, len(t.rules))
	for i, ar := range t.rules {
		out[i] = ar.Rule
	}
	return out
}

// FlowRule returns the full rule redirecting the given local flow, if
// one is installed: its NewAddr is where the remote endpoint lives now.
// The migration engine sends a migrating socket's translation request
// there, and replicates the rule onto the destination node, so a socket
// keeps reaching a peer that itself migrated earlier (both-ends
// migration, the paper's §VI-C future work).
func (t *Translator) FlowRule(proto byte, remoteAddr netsim.Addr, localPort, remotePort uint16) (Rule, bool) {
	if i := t.flow(proto, remoteAddr, localPort, remotePort); i >= 0 {
		return t.rules[i].Rule, true
	}
	return Rule{}, false
}

// RemoveFlow drops any rule matching the given flow (cleanup when the
// local socket of a translated connection migrates away: the rule
// belongs to the departed socket and must not linger).
func (t *Translator) RemoveFlow(proto byte, remoteAddr netsim.Addr, localPort, remotePort uint16) {
	if i := t.flow(proto, remoteAddr, localPort, remotePort); i >= 0 {
		t.drop(i)
	}
}

// flow is the index of the rule matching a local flow, or -1.
func (t *Translator) flow(proto byte, remoteAddr netsim.Addr, localPort, remotePort uint16) int {
	for i, ar := range t.rules {
		if ar.Proto == proto && ar.OldAddr == remoteAddr &&
			ar.LocalPort == localPort && ar.RemotePort == remotePort {
			return i
		}
	}
	return -1
}

// Stats returns per-rule rewrite counters.
func (t *Translator) Stats(r Rule) (out, in uint64, ok bool) {
	for _, ar := range t.rules {
		if ar.Rule == r {
			return ar.TranslatedOut, ar.TranslatedIn, true
		}
	}
	return 0, 0, false
}

// Out fills the stack's LOCAL_OUT translation slot: a packet to a
// migrated endpoint's old address leaves for its new one.
func (t *Translator) Out(p *netsim.Packet) {
	for _, ar := range t.rules {
		if p.Proto == ar.Proto && p.DstIP == ar.OldAddr &&
			p.DstPort == ar.RemotePort && p.SrcPort == ar.LocalPort {
			p.DstIP = ar.NewAddr
			p.Dst = ar.newDst // replace the inherited destination cache entry
			p.FixChecksum()   // the rewritten header invalidates the checksum
			ar.TranslatedOut++
			return
		}
	}
}

// In fills the stack's LOCAL_IN translation slot: a packet from a
// migrated endpoint's new address arrives from its old one.
func (t *Translator) In(p *netsim.Packet) {
	for _, ar := range t.rules {
		if p.Proto == ar.Proto && p.SrcIP == ar.NewAddr &&
			p.SrcPort == ar.RemotePort && p.DstPort == ar.LocalPort {
			p.SrcIP = ar.OldAddr
			p.FixChecksum()
			ar.TranslatedIn++
			return
		}
	}
}

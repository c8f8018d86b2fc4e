package lb

import (
	"encoding/binary"
	"sort"

	"dvemig/internal/migration"
	"dvemig/internal/netsim"
	"dvemig/internal/obs"
	"dvemig/internal/simtime"
	"dvemig/internal/wire"
)

// Detector-driven failover (layered on the failure detector in
// conductor.go). Each conductor may be wired to a standby daemon via
// EnableFailover; owners register their services with AnnounceOwnership
// so every advert carries the service's ownership epoch. When the
// detector confirms a peer dead, conductors holding checkpoint images
// from that peer broadcast claims and run a short election: the claim
// with the freshest image — (epoch, seq), lower address breaking ties —
// wins and activates the image under a freshly minted epoch. The new
// owner's adverts then fence any stale serving state cluster-wide: a
// healed old owner that hears a higher epoch dismantles its sockets,
// capture filters and translation rules without emitting a packet.
//
// Two safety rails close the remaining split-brain windows:
//
//   - Quorum gate: a claimant that can see no peers of a ≥3-node
//     cluster refuses to activate — it must assume it is the one
//     partitioned off.
//   - Self-fencing: an owner that loses sight of every peer suspends
//     its services (loops stopped, sockets unhashed, state intact); on
//     heal it waits resumeGrace for a higher-epoch owner to speak up
//     before resuming. In a two-node world this is what makes the
//     survivor's lone activation safe.

// ownership tracks one service this conductor's node currently serves.
type ownership struct {
	epoch     uint64
	guardian  *migration.Guardian
	since     simtime.Time
	suspended bool
	resume    *simtime.Event
}

// claim is a pending failover election for a dead owner's service.
type claim struct {
	name  string
	ep    uint64 // freshness of our stored image
	seq   uint64
	timer *simtime.Event

	// at/span are the election's observability anchors: the claim
	// broadcast time and the claim-to-outcome span (nil when the plane
	// is disabled).
	at   simtime.Time
	span *obs.Span
}

// EnableFailover wires a standby daemon into the conductor so the
// failure detector can drive activations of its stored images.
func (c *Conductor) EnableFailover(sb *migration.Standby) { c.standby = sb }

// AnnounceOwnership registers that this node serves the named service,
// minting an ownership epoch if none exists yet, stamping it into the
// service's guardian (nil for unguarded services) so shipped images
// carry it, and broadcasting an ownership advert. Returns the epoch.
func (c *Conductor) AnnounceOwnership(name string, g *migration.Guardian) uint64 {
	ep := c.Mig.Epochs.Current(name)
	if ep == 0 {
		ep = c.Mig.Epochs.Bump(name)
	}
	if g != nil {
		g.Epoch = ep
		if c.Obs != nil && g.Span == nil {
			gs := c.Obs.Trace.Start(c.Node.Name, "guard")
			gs.SetAttr("service", name)
			gs.SetInt("epoch", int64(ep))
			g.Span = gs
		}
	}
	c.owned[name] = &ownership{epoch: ep, guardian: g, since: c.now()}
	c.broadcast(c.ownerMsg(opOwner, name, ep, 0))
	return ep
}

// OwnershipEpoch reports the epoch a local ownership runs under, and
// whether the service is currently suspended by self-fencing. Zero
// epoch means the service is not owned here.
func (c *Conductor) OwnershipEpoch(name string) (ep uint64, suspended bool) {
	own := c.owned[name]
	if own == nil {
		return 0, false
	}
	return own.epoch, own.suspended
}

// advertiseOwnership re-broadcasts every live (non-suspended) ownership
// each tick so healed nodes and latecomers learn who serves what under
// which epoch. A suspended owner stays mute: it cannot prove it was not
// superseded while isolated.
func (c *Conductor) advertiseOwnership() {
	for _, name := range c.ownedNames() {
		own := c.owned[name]
		if own.suspended {
			continue
		}
		c.broadcast(c.ownerMsg(opOwner, name, own.epoch, 0))
	}
}

// onPeerDead starts a failover election for every service whose latest
// standby image came from the dead node.
func (c *Conductor) onPeerDead(addr netsim.Addr) {
	if c.standby == nil {
		return
	}
	for _, name := range c.standby.ImagesFrom(addr) {
		c.startClaim(name)
	}
}

// startClaim opens the election window for a service: broadcast our
// image's freshness, wait claimWait for a fresher competing claim or a
// live owner's defence, then activate.
func (c *Conductor) startClaim(name string) {
	if c.owned[name] != nil || c.claims[name] != nil {
		return
	}
	ep, seq, _, ok := c.standby.ImageInfo(name)
	if !ok || c.Mig.Epochs.Stale(name, ep) {
		return // no image, or a fresher owner was already observed
	}
	cl := &claim{name: name, ep: ep, seq: seq, at: c.now()}
	c.claims[name] = cl
	c.Events = append(c.Events, Event{At: c.now(), Kind: "claim", Name: name})
	c.electionStart(cl)
	c.broadcast(c.ownerMsg(opClaim, name, ep, seq))
	cl.timer = c.Node.Sched.After(c.claimWait(), "cond.claim", func() {
		cl.timer = nil // fired; the event pointer is dead
		if c.claims[name] != cl {
			return
		}
		delete(c.claims, name)
		c.activate(name, cl)
	})
}

// activate restarts the claimed service from the local standby image
// under a freshly minted epoch and advertises the new ownership. cl is
// the won election (nil when activation is driven outside an election).
func (c *Conductor) activate(name string, cl *claim) {
	// Quorum gate: seeing no peers of a cluster that has held ≥3 nodes
	// means we are the ones cut off — the majority side will elect its
	// own claimant. (In a two-node world the survivor has no witnesses
	// by construction; the old owner self-suspends on isolation, so the
	// lone activation is safe.)
	if c.aliveCount() == 0 && c.maxPeersSeen >= 2 {
		c.electionEnd(cl, "refused-quorum")
		return
	}
	imgEp, _, _, ok := c.standby.ImageInfo(name)
	if !ok || c.Mig.Epochs.Stale(name, imgEp) {
		c.electionEnd(cl, "refused-stale")
		return
	}
	c.Mig.Epochs.Observe(name, imgEp)
	ep := c.Mig.Epochs.Bump(name)
	droppedBefore := c.standby.DroppedDatagrams
	p, err := c.standby.Activate(name)
	if err != nil {
		c.electionEnd(cl, "refused-restore")
		return
	}
	c.owned[name] = &ownership{epoch: ep, since: c.now()}
	c.Failovers++
	c.Events = append(c.Events, Event{At: c.now(), Kind: "activate", Name: name, PID: p.PID})
	c.electionEnd(cl, "won")
	c.noteActivation(name, ep, p.PID, droppedBefore, cl)
	c.broadcast(c.ownerMsg(opOwner, name, ep, 0))
}

// handleOwner processes an ownership advertisement.
func (c *Conductor) handleOwner(from netsim.Addr, name string, ep, seq uint64) {
	_ = seq
	// A fresh-enough advert settles any pending election here.
	if cl := c.claims[name]; cl != nil && ep >= cl.ep {
		c.cancelClaim(name)
	}
	if own := c.owned[name]; own != nil {
		if ep > own.epoch {
			// Superseded: a standby took over while we were away.
			c.fenceOwned(name, ep, from)
		} else if ep < own.epoch {
			// Defend: the sender advertises from a stale epoch; our
			// unicast advert makes it fence itself.
			c.send(from, c.ownerMsg(opOwner, name, own.epoch, 0))
		}
		return
	}
	// Not an owner: ratchet the watermark and dismantle any stale local
	// serving state (a healed node that lost ownership while isolated).
	c.Mig.FenceService(name, ep)
}

// fenceOwned dismantles a local ownership superseded by a higher epoch.
func (c *Conductor) fenceOwned(name string, ep uint64, by netsim.Addr) {
	own := c.owned[name]
	if own == nil {
		return
	}
	if own.guardian != nil {
		own.guardian.Stop()
	}
	if own.resume != nil {
		c.Node.Sched.Cancel(own.resume)
		own.resume = nil
	}
	delete(c.owned, name)
	c.Mig.FenceService(name, ep)
	c.Events = append(c.Events, Event{At: c.now(), Kind: "fence", Peer: by, Name: name})
	c.noteEvent("fence", name)
}

// handleClaim processes a failover claim broadcast by a peer that
// believes the named service's owner died.
func (c *Conductor) handleClaim(from netsim.Addr, name string, ep, seq uint64) {
	// A live owner defends its service; the claimant cancels on any
	// advert at or above its image's epoch. A suspended owner stays
	// quiet — it cannot prove it was not superseded.
	if own := c.owned[name]; own != nil {
		if !own.suspended && own.epoch >= ep {
			c.send(from, c.ownerMsg(opOwner, name, own.epoch, 0))
		}
		return
	}
	if cl := c.claims[name]; cl != nil {
		if claimBeats(ep, seq, from, cl.ep, cl.seq, c.Node.LocalIP) {
			// Outbid: their image is fresher.
			c.cancelClaim(name)
		} else {
			// Ours is fresher; resend it unicast in case our original
			// broadcast crossed theirs mid-flight.
			c.send(from, c.ownerMsg(opClaim, name, cl.ep, cl.seq))
		}
		return
	}
	// No pending claim here, but if our stored image beats theirs we
	// counter-claim — without this, a claim racing ahead of our own
	// detector would activate a staler image unopposed.
	if c.standby == nil {
		return
	}
	myEp, mySeq, _, ok := c.standby.ImageInfo(name)
	if ok && !c.Mig.Epochs.Stale(name, myEp) &&
		claimBeats(myEp, mySeq, c.Node.LocalIP, ep, seq, from) {
		c.startClaim(name)
	}
}

func (c *Conductor) cancelClaim(name string) {
	cl := c.claims[name]
	if cl == nil {
		return
	}
	if cl.timer != nil {
		c.Node.Sched.Cancel(cl.timer)
		cl.timer = nil
	}
	delete(c.claims, name)
	c.electionEnd(cl, "canceled")
}

// checkIsolation self-fences an owner whose every peer is confirmed
// dead: without witnesses it cannot distinguish its own NIC failure
// from everyone else dying, and in the broadcast cluster serving blind
// risks double ownership the moment a standby on the majority side
// activates. Mere suspicion does not suspend — a blip shorter than
// peerTimeout never interrupts service — and the ordering stays safe
// because the owner confirms its peers dead (and goes mute) at
// peerTimeout, while any remote claimant activates no earlier than
// peerTimeout+claimWait. On heal each suspended service resumes after
// resumeGrace unless a higher-epoch owner speaks up in the meantime.
func (c *Conductor) checkIsolation() {
	if c.PeerCount() == 0 && c.maxPeersSeen >= 1 {
		if !c.isolated {
			c.isolated = true
			c.isolatedSince = c.now()
			for _, name := range c.ownedNames() {
				own := c.owned[name]
				// Ownership acquired during the isolation itself (the
				// two-node survivor's activation) is exempt.
				if own.suspended || own.since >= c.isolatedSince {
					continue
				}
				own.suspended = true
				c.Mig.SuspendService(name)
				c.Events = append(c.Events, Event{At: c.now(), Kind: "suspend", Name: name})
				c.noteEvent("suspend", name)
			}
		}
		return
	}
	if c.aliveCount() > 0 && c.isolated {
		c.isolated = false
		for _, name := range c.ownedNames() {
			own := c.owned[name]
			if !own.suspended || own.resume != nil {
				continue
			}
			n, o := name, own
			o.resume = c.Node.Sched.After(c.resumeGrace(), "cond.resume", func() {
				o.resume = nil
				if c.owned[n] != o || !o.suspended {
					return
				}
				o.suspended = false
				c.Mig.ResumeService(n)
				c.Events = append(c.Events, Event{At: c.now(), Kind: "resume", Name: n})
				c.noteEvent("resume", n)
				c.broadcast(c.ownerMsg(opOwner, n, o.epoch, 0))
			})
		}
	}
}

// claimBeats orders competing claims: higher epoch, then higher seq,
// then lower address.
func claimBeats(aEp, aSeq uint64, aAddr netsim.Addr, bEp, bSeq uint64, bAddr netsim.Addr) bool {
	if aEp != bEp {
		return aEp > bEp
	}
	if aSeq != bSeq {
		return aSeq > bSeq
	}
	return aAddr < bAddr
}

// claimWait is the failover election window between broadcasting an
// ownership claim and activating the standby image; competing claims
// arriving within it are compared by (epoch, seq, lower address).
func (c *Conductor) claimWait() simtime.Duration { return 2 * c.Config.Period }

// resumeGrace is how long a healed, formerly isolated owner listens for
// a higher-epoch owner before resuming its suspended service.
func (c *Conductor) resumeGrace() simtime.Duration { return 3 * c.Config.Period }

// broadcast sends a message to every known peer — dead ones included,
// since a healed node must hear adverts to fence itself — in sorted
// address order for deterministic packet traces.
func (c *Conductor) broadcast(msg []byte) {
	for _, addr := range c.peerAddrs() {
		c.send(addr, msg)
	}
}

// peerAddrs lists every known peer address in sorted order. The list is
// the conductor's own (peerOrder): read-only to the caller.
func (c *Conductor) peerAddrs() []netsim.Addr { return c.peerOrder }

func (c *Conductor) ownedNames() []string {
	out := make([]string, 0, len(c.owned))
	for name := range c.owned {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Ownership/claim wire layout: [op][8B epoch][8B seq][name].
func appendOwnerMsg(b []byte, op byte, name string, ep, seq uint64) []byte {
	b = append(b, op)
	b = binary.BigEndian.AppendUint64(b, ep)
	b = binary.BigEndian.AppendUint64(b, seq)
	return append(b, name...)
}

// ownerMsg frames an ownership or claim message in the conductor's frame
// scratch: good until the next one is framed, which is long enough to
// send or broadcast it (the socket copies it into each packet).
func (c *Conductor) ownerMsg(op byte, name string, ep, seq uint64) []byte {
	c.wbuf = appendOwnerMsg(c.wbuf[:0], op, name, ep, seq)
	return c.wbuf
}

func decodeOwnerMsg(b []byte) (name string, ep, seq uint64, err error) {
	r := wire.NewReader(b)
	r.Skip(1) // op
	ep, seq = r.U64(), r.U64()
	if r.Err() != nil {
		return "", 0, 0, r.Err()
	}
	return string(r.Rest()), ep, seq, nil
}

package ctlplane

import (
	"encoding/binary"
	"fmt"

	"dvemig/internal/netsim"
	"dvemig/internal/wire"
)

// CtlPort is the UDP port controllers (primary and standby) listen on;
// AgentPort is the per-node agent's. Both ride internal/netsim, so the
// control plane shares the cluster links' faults with the data plane.
const (
	CtlPort   = 7903
	AgentPort = 7904
)

// Wire opcodes. Every controller-originated message leads with the
// controller epoch — the fence agents ratchet on, so a superseded
// primary cannot drive anything after a takeover.
//
// A message's appendTo appends its frame to a buffer the sender owns and
// reuses for every frame it sends (UDPSocket.SendTo copies it into the
// packet); the decoders copy what they keep out of the lent datagram.
const (
	opRun       = 1 // ctl→agent: drive one migration attempt
	opCancel    = 2 // ctl→agent: cancel the object's in-flight attempt
	opEvent     = 3 // agent→ctl: watch event (lifecycle observation)
	opHello     = 4 // primary→standby: liveness heartbeat
	opReplicate = 5 // primary→standby: one object's spec+status
)

// Watch-event kinds (agent → controller).
const (
	evAccepted      = 1 // admitted; the engine's migration started
	evRejected      = 2 // admission check failed — terminal, never started
	evSucceeded     = 3 // migration completed; process runs on dest
	evAborted       = 4 // migration rolled back (or canceled) at the source
	evBusy          = 5 // lb migration slot busy — retryable without rollback
	evCancelRefused = 6 // cancel arrived past the point of no return
	evStaleCtl      = 7 // the sending controller's epoch is below the fence
)

func evKindString(k byte) string {
	switch k {
	case evAccepted:
		return "accepted"
	case evRejected:
		return "rejected"
	case evSucceeded:
		return "succeeded"
	case evAborted:
		return "aborted"
	case evBusy:
		return "busy"
	case evCancelRefused:
		return "cancel-refused"
	case evStaleCtl:
		return "stale-ctl"
	}
	return fmt.Sprintf("ev(%d)", k)
}

// runMsg is one migration-attempt directive. Resending it is always
// safe: the agent dedups on (ObjID, Attempt) and answers with the
// recorded outcome instead of driving twice.
type runMsg struct {
	CtlEpoch uint64
	ObjID    uint64
	Attempt  uint32
	PID      uint32
	Dest     netsim.Addr
	SvcEpoch uint64 // submitter's ownership-epoch claim (0 = unchecked)
	Strategy string
	Name     string
}

func (m runMsg) appendTo(b []byte) []byte {
	b = append(b, opRun)
	b = binary.BigEndian.AppendUint64(b, m.CtlEpoch)
	b = binary.BigEndian.AppendUint64(b, m.ObjID)
	b = binary.BigEndian.AppendUint32(b, m.Attempt)
	b = binary.BigEndian.AppendUint32(b, m.PID)
	b = binary.BigEndian.AppendUint32(b, uint32(m.Dest))
	b = binary.BigEndian.AppendUint64(b, m.SvcEpoch)
	b = append(b, byte(len(m.Strategy)))
	b = append(b, m.Strategy...)
	b = append(b, m.Name...)
	return b
}

func decodeRunMsg(b []byte) (runMsg, error) {
	var m runMsg
	d := wire.NewReader(b)
	if op := d.U8(); op != opRun {
		return m, fmt.Errorf("ctlplane: not a run frame (op %d)", op)
	}
	m.CtlEpoch = d.U64()
	m.ObjID = d.U64()
	m.Attempt = d.U32()
	m.PID = d.U32()
	m.Dest = netsim.Addr(d.U32())
	m.SvcEpoch = d.U64()
	m.Strategy = string(d.Bytes(int(d.U8())))
	if d.Err() != nil {
		return m, d.Err()
	}
	m.Name = string(d.Rest())
	if len(m.Name) > maxWireName {
		return m, fmt.Errorf("ctlplane: name too long (%d)", len(m.Name))
	}
	return m, nil
}

// cancelMsg asks the agent to abort the object's in-flight attempt.
type cancelMsg struct {
	CtlEpoch uint64
	ObjID    uint64
	Attempt  uint32
	Reason   string
}

func (m cancelMsg) appendTo(b []byte) []byte {
	b = append(b, opCancel)
	b = binary.BigEndian.AppendUint64(b, m.CtlEpoch)
	b = binary.BigEndian.AppendUint64(b, m.ObjID)
	b = binary.BigEndian.AppendUint32(b, m.Attempt)
	b = append(b, m.Reason...)
	return b
}

func decodeCancelMsg(b []byte) (cancelMsg, error) {
	var m cancelMsg
	d := wire.NewReader(b)
	if op := d.U8(); op != opCancel {
		return m, fmt.Errorf("ctlplane: not a cancel frame (op %d)", op)
	}
	m.CtlEpoch = d.U64()
	m.ObjID = d.U64()
	m.Attempt = d.U32()
	if d.Err() != nil {
		return m, d.Err()
	}
	m.Reason = string(d.Rest())
	return m, nil
}

// eventMsg is one watch event: the agent's observation of an object's
// lifecycle, carrying the agent's controller-epoch watermark (so a
// superseded primary learns it was fenced) and the service's current
// ownership epoch (so the controller's admission watermark advances).
type eventMsg struct {
	CtlEpoch uint64
	ObjID    uint64
	Attempt  uint32
	Kind     byte
	SvcEpoch uint64
	Detail   string
}

func (m eventMsg) appendTo(b []byte) []byte {
	b = append(b, opEvent)
	b = binary.BigEndian.AppendUint64(b, m.CtlEpoch)
	b = binary.BigEndian.AppendUint64(b, m.ObjID)
	b = binary.BigEndian.AppendUint32(b, m.Attempt)
	b = append(b, m.Kind)
	b = binary.BigEndian.AppendUint64(b, m.SvcEpoch)
	b = append(b, m.Detail...)
	return b
}

func decodeEventMsg(b []byte) (eventMsg, error) {
	var m eventMsg
	d := wire.NewReader(b)
	if op := d.U8(); op != opEvent {
		return m, fmt.Errorf("ctlplane: not an event frame (op %d)", op)
	}
	m.CtlEpoch = d.U64()
	m.ObjID = d.U64()
	m.Attempt = d.U32()
	m.Kind = d.U8()
	m.SvcEpoch = d.U64()
	if d.Err() != nil {
		return m, d.Err()
	}
	if m.Kind < evAccepted || m.Kind > evStaleCtl {
		return m, fmt.Errorf("ctlplane: unknown event kind %d", m.Kind)
	}
	m.Detail = string(d.Rest())
	return m, nil
}

// helloMsg is the primary's liveness beacon to the standby.
type helloMsg struct {
	CtlEpoch uint64
	Seq      uint64
}

func (m helloMsg) appendTo(b []byte) []byte {
	b = append(b, opHello)
	b = binary.BigEndian.AppendUint64(b, m.CtlEpoch)
	b = binary.BigEndian.AppendUint64(b, m.Seq)
	return b
}

func decodeHelloMsg(b []byte) (helloMsg, error) {
	var m helloMsg
	d := wire.NewReader(b)
	if op := d.U8(); op != opHello {
		return m, fmt.Errorf("ctlplane: not a hello frame (op %d)", op)
	}
	m.CtlEpoch = d.U64()
	m.Seq = d.U64()
	if d.Err() != nil {
		return m, d.Err()
	}
	if n := len(d.Rest()); n != 0 {
		return m, fmt.Errorf("ctlplane: %d trailing bytes in hello", n)
	}
	return m, nil
}

// appendReplicate frames one object for the standby: op, the sender's
// controller epoch, the object.
func appendReplicate(b []byte, ctlEpoch uint64, o *Object) []byte {
	b = append(b, opReplicate)
	b = binary.BigEndian.AppendUint64(b, ctlEpoch)
	return AppendObject(b, o)
}

// decodeReplicate parses a replicate frame into o against the receiver's
// store (see decodeObject) and returns the sender's controller epoch.
func decodeReplicate(o *Object, b []byte, held map[uint64]*Object) (uint64, error) {
	d := wire.NewReader(b)
	if op := d.U8(); op != opReplicate {
		return 0, fmt.Errorf("ctlplane: not a replicate frame (op %d)", op)
	}
	ep := d.U64()
	if d.Err() != nil {
		return 0, d.Err()
	}
	return ep, decodeObject(o, d.Rest(), held)
}

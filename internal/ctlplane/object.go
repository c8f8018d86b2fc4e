// Package ctlplane is the declarative migration control plane: a
// Migration object with a spec/status lifecycle (Pending → Scheduling →
// Running → Succeeded / Failed / Aborted), a reconcile controller that
// watches desired state and drives the migration engine through
// per-node agents, and first-class robustness policy — admission checks
// against ownership epochs, per-object deadlines, bounded retry with
// seed-deterministic exponential backoff + jitter, cancel as an API
// verb, and parking in Failed with a recorded cause chain instead of
// hot-looping.
//
// The controller is itself a simulated service: it runs on a node,
// its run/cancel/watch-event messages are UDP datagrams over
// internal/netsim, so partitions, faults and crashes apply to the
// control plane exactly as to the data plane. A standby controller
// receives a replicated object store and heartbeats; when the primary
// goes silent it takes over under a bumped controller epoch, and the
// agents' (object, attempt) dedup log plus the epoch fence guarantee
// no migration is ever driven twice.
package ctlplane

import (
	"encoding/binary"
	"fmt"
	"slices"

	"dvemig/internal/netsim"
	"dvemig/internal/simtime"
	"dvemig/internal/wire"
)

// State is a Migration object's lifecycle state.
type State int

// Lifecycle: Pending (submitted, not yet admitted) → Scheduling
// (admitted, dispatching to the source agent) → Running (the engine is
// migrating) → one of the terminal states. Aborted is the terminal for
// explicit cancels; Failed for admission rejects, exhausted retries and
// deadlines; Succeeded for a completed migration.
const (
	Pending State = iota
	Scheduling
	Running
	Succeeded
	Failed
	Aborted
)

func (s State) String() string {
	switch s {
	case Pending:
		return "Pending"
	case Scheduling:
		return "Scheduling"
	case Running:
		return "Running"
	case Succeeded:
		return "Succeeded"
	case Failed:
		return "Failed"
	case Aborted:
		return "Aborted"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Succeeded || s == Failed || s == Aborted }

// Spec is the desired state: migrate the named process from Source to
// Dest with the given strategy and robustness budget. The controller
// never mutates a Spec after Submit.
type Spec struct {
	// ID is assigned by Submit (unique per controller lineage).
	ID uint64
	// PID / Name identify the process; Name is also the ownership-epoch
	// key the admission check fences on.
	PID  int
	Name string
	// Source is the node the process currently runs on (its agent
	// drives the migration); Dest is where it should go.
	Source netsim.Addr
	Dest   netsim.Addr
	// Strategy is the memory-movement strategy name ("precopy",
	// "postcopy", "hybrid"; empty = the agent's default).
	Strategy string
	// Epoch, when nonzero, is the ownership epoch the submitter believes
	// the service has; admission rejects the object if the watermark has
	// moved past it (the submitter's view is stale).
	Epoch uint64
	// Deadline bounds the object end to end (submit → terminal), across
	// every retry. Zero uses the controller default.
	Deadline simtime.Duration
	// MaxRetries bounds re-dispatches after an aborted attempt
	// (negative = controller default; 0 = never retry).
	MaxRetries int
}

// Status is the observed state the controller maintains.
type Status struct {
	State State
	// Attempt is the current (1-based) migration attempt; Retries counts
	// attempts beyond the first.
	Attempt int
	Retries int
	// Cause is the recorded cause chain, oldest first — every admission
	// verdict, abort reason, retry decision and deadline event appends
	// here, so a parked object explains itself.
	Cause []string
	// CancelRequested marks an in-flight Cancel verb.
	CancelRequested bool
	SubmitAt        simtime.Time
	DoneAt          simtime.Time
}

// Object is one Migration: desired Spec plus observed Status.
type Object struct {
	Spec   Spec
	Status Status

	// Controller-runtime fields (not replicated; the standby rebuilds
	// them on takeover).
	ord        int          // index of Spec.ID in Controller.order; sorts Controller.live
	nextAt     simtime.Time // no dispatch before this instant (backoff gate)
	lastSent   simtime.Time // last opRun send, for the level-triggered probe
	dispatched int          // opRun datagrams sent for the current attempt
	deadlined  bool         // the pending cancel is deadline-triggered → park Failed, not Aborted
	// cancelRefused: the engine reported the migration past its commit
	// fence — stop cancelling and wait for the outcome event instead.
	cancelRefused bool
}

// Terminal reports whether the object reached a final state.
func (o *Object) Terminal() bool { return o.Status.State.Terminal() }

// addCause appends one cause-chain entry.
func (o *Object) addCause(format string, args ...any) {
	o.Status.Cause = append(o.Status.Cause, fmt.Sprintf(format, args...))
}

// --- wire codec -----------------------------------------------------------
//
// The object codec is the replication payload (primary → standby) and a
// fuzz surface: it must reject truncated and corrupt frames without
// panicking, and every accepted frame must roundtrip.

const objCodecVersion = 1

// maxWireStrings bounds decoded string/slice lengths so a corrupt
// length field cannot allocate unbounded memory.
const (
	maxWireName  = 256
	maxWireCause = 64
)

// AppendObject appends o's spec+status (not the runtime fields) to b.
func AppendObject(b []byte, o *Object) []byte {
	name := o.Spec.Name
	if len(name) > maxWireName {
		name = name[:maxWireName]
	}
	strat := o.Spec.Strategy
	if len(strat) > 255 {
		strat = strat[:255]
	}
	b = append(b, objCodecVersion)
	b = binary.BigEndian.AppendUint64(b, o.Spec.ID)
	b = binary.BigEndian.AppendUint32(b, uint32(o.Spec.PID))
	b = binary.BigEndian.AppendUint32(b, uint32(o.Spec.Source))
	b = binary.BigEndian.AppendUint32(b, uint32(o.Spec.Dest))
	b = binary.BigEndian.AppendUint64(b, o.Spec.Epoch)
	b = binary.BigEndian.AppendUint64(b, uint64(o.Spec.Deadline))
	b = binary.BigEndian.AppendUint32(b, uint32(int32(o.Spec.MaxRetries)))
	b = append(b, byte(o.Status.State))
	b = binary.BigEndian.AppendUint32(b, uint32(o.Status.Attempt))
	b = binary.BigEndian.AppendUint32(b, uint32(o.Status.Retries))
	if o.Status.CancelRequested {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.BigEndian.AppendUint64(b, uint64(o.Status.SubmitAt))
	b = binary.BigEndian.AppendUint64(b, uint64(o.Status.DoneAt))
	b = append(b, byte(len(strat)))
	b = append(b, strat...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	causes := o.Status.Cause
	if len(causes) > maxWireCause {
		causes = causes[len(causes)-maxWireCause:]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(causes)))
	for _, cz := range causes {
		if len(cz) > 512 {
			cz = cz[:512]
		}
		b = binary.BigEndian.AppendUint16(b, uint16(len(cz)))
		b = append(b, cz...)
	}
	return b
}

// DecodeObject parses an AppendObject frame.
func DecodeObject(b []byte) (*Object, error) {
	o := &Object{}
	if err := decodeObject(o, b, nil); err != nil {
		return nil, err
	}
	return o, nil
}

// decodeObject parses an AppendObject frame into o, copying nothing out
// of b that the receiver already has: held is its store, and where the
// frame repeats the Name, the Strategy or the leading cause entries of
// the version held under the same ID, o takes the held strings. Nothing
// held is written — a refused frame leaves the store as it was.
func decodeObject(o *Object, b []byte, held map[uint64]*Object) error {
	d := wire.NewReader(b)
	if v := d.U8(); v != objCodecVersion {
		return fmt.Errorf("ctlplane: object codec version %d", v)
	}
	*o = Object{}
	o.Spec.ID = d.U64()
	var none Object
	prev := held[o.Spec.ID]
	if prev == nil {
		prev = &none
	}
	o.Spec.PID = int(d.U32())
	o.Spec.Source = netsim.Addr(d.U32())
	o.Spec.Dest = netsim.Addr(d.U32())
	o.Spec.Epoch = d.U64()
	o.Spec.Deadline = simtime.Duration(d.U64())
	o.Spec.MaxRetries = int(int32(d.U32()))
	st := State(d.U8())
	o.Status.Attempt = int(d.U32())
	o.Status.Retries = int(d.U32())
	o.Status.CancelRequested = d.U8() == 1
	o.Status.SubmitAt = simtime.Time(d.U64())
	o.Status.DoneAt = simtime.Time(d.U64())
	o.Spec.Strategy = str(&d, int(d.U8()), prev.Spec.Strategy)
	o.Spec.Name = str(&d, int(d.U16()), prev.Spec.Name)
	nCause := int(d.U16())
	if nCause > maxWireCause {
		return fmt.Errorf("ctlplane: %d cause entries (max %d)", nCause, maxWireCause)
	}
	have := prev.Status.Cause
	keep := 0
	for keep < nCause && keep < len(have) && skipStr16(&d, have[keep]) {
		keep++
	}
	if nCause > 0 {
		o.Status.Cause = have[:keep]
		if keep < len(have) {
			// The frame departs from the held chain: grow a new one, the
			// held entries past keep stay as they are.
			o.Status.Cause = slices.Clip(o.Status.Cause)
		}
	}
	for i := keep; i < nCause; i++ {
		o.Status.Cause = append(o.Status.Cause, str(&d, int(d.U16()), ""))
	}
	if d.Err() != nil {
		return d.Err()
	}
	if n := len(d.Rest()); n != 0 {
		return fmt.Errorf("ctlplane: %d trailing bytes", n)
	}
	if st < Pending || st > Aborted {
		return fmt.Errorf("ctlplane: invalid state %d", int(st))
	}
	o.Status.State = st
	if len(o.Spec.Name) > maxWireName {
		return fmt.Errorf("ctlplane: name too long")
	}
	return nil
}

// str reads n bytes as a string; when they spell held, the value the
// caller already has for the field, it returns held and copies nothing.
func str(r *wire.Reader, n int, held string) string {
	raw := r.Bytes(n)
	if string(raw) == held {
		return held
	}
	return string(raw)
}

// skipStr16 steps over a u16-length-prefixed string if it spells s, and
// reports whether it did.
func skipStr16(r *wire.Reader, s string) bool {
	ahead := *r
	if int(ahead.U16()) != len(s) || string(ahead.Bytes(len(s))) != s || ahead.Err() != nil {
		return false
	}
	*r = ahead
	return true
}

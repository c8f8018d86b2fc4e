package migration

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"dvemig/internal/ckpt"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/wire"
)

// Fault tolerance (paper §VIII names it as future work for the
// mechanism): a Guardian periodically checkpoints a process and streams
// the image to a Standby on a buddy node; when the home node dies, the
// standby restarts the process from the most recent image. The lb
// conductor's failure detector drives the activation (see internal/lb):
// suspicion after missed heartbeats, confirmation after peerTimeout,
// then a claim election among standbys holding images — the freshest
// (epoch, seq) wins — and the winner activates under a freshly minted
// ownership epoch.
//
// Connection state cannot outlive a crash the way it outlives a planned
// migration — the post-checkpoint socket state died with the node, so
// replaying a stale snapshot would desynchronize sequence numbers with
// the peers. On activation the standby therefore restores listening TCP
// sockets and UDP server sockets (ports the service owns) but drops
// established TCP connections: clients reconnect, exactly as after a
// server crash with fast restart.

// StandbyPort is the TCP port standby daemons listen on.
const StandbyPort = 7802

// Checkpoint stream message types (separate space from migd messages).
const (
	msgCkptImage MsgType = 100 + iota
	msgCkptAck
)

// Standby receives and stores checkpoint images and can activate them.
type Standby struct {
	Node *proc.Node

	// MaxImages bounds how many distinct services the standby retains
	// images for; storing one more evicts the stalest (oldest receive
	// time). Zero means the DefaultMaxImages bound.
	MaxImages int

	listener *netstack.TCPSocket
	images   map[string]*standbyImage

	// Stored counts images accepted; Evicted counts images dropped by
	// the retention bound; RejectedStale counts images refused for
	// carrying a superseded (epoch, seq).
	Stored        uint64
	Evicted       uint64
	RejectedStale uint64

	// DroppedDatagrams counts queued UDP datagrams discarded during
	// Activate (the paper's restart-consistency rule: a snapshot queue
	// must not be answered twice). The observability plane harvests it.
	DroppedDatagrams uint64
}

// DefaultMaxImages is the retention bound applied when MaxImages is 0.
const DefaultMaxImages = 64

type standbyImage struct {
	data  []byte
	token uint64
	seq   uint64
	epoch uint64
	from  netsim.Addr  // guardian's node (the image's home)
	at    simtime.Time // receive time, for eviction order
	tctx  obs.TraceContext
}

// NewStandby starts the standby daemon on a node.
func NewStandby(n *proc.Node) (*Standby, error) {
	s := &Standby{Node: n, images: make(map[string]*standbyImage)}
	s.listener = netstack.NewTCPSocket(n.Stack)
	if err := s.listener.Listen(n.LocalIP, StandbyPort); err != nil {
		return nil, err
	}
	s.listener.OnAccept = func(ch *netstack.TCPSocket) { newConn(ch, s, nil) }
	return s, nil
}

// frame stores a guardian's image and acknowledges it; the standby is
// the owner of every guardian connection it accepts.
func (s *Standby) frame(c *Conn, t MsgType, payload []byte) {
	if t != msgCkptImage {
		return
	}
	name, token, seq, ep, tctx, img, err := decodeCkptImage(payload)
	if err != nil {
		return
	}
	s.offer(name, token, seq, ep, tctx, c.sk.RemoteIP, img)
	c.Send(msgCkptAck, payload[:8])
}

// closed: a guardian that hangs up leaves its images stored; they are
// what a failover activates.
func (s *Standby) closed(*Conn) {}

// offer folds a received image into the store under the freshness order
// (epoch, then seq). Superseded and refused images release their
// behavior tokens immediately — the fix for the unbounded registry
// growth the old "keep every token forever" behaviour caused.
func (s *Standby) offer(name string, token, seq, ep uint64, tctx obs.TraceContext, from netsim.Addr, img []byte) {
	cur := s.images[name]
	fresher := cur == nil || ep > cur.epoch || (ep == cur.epoch && seq > cur.seq)
	if !fresher {
		s.RejectedStale++
		takeBehavior(s.Node.Sched, token) // refused image's behavior is unreachable
		return
	}
	if cur != nil && cur.token != token {
		takeBehavior(s.Node.Sched, cur.token) // superseded image's behavior
	}
	if cur == nil {
		s.evictFor(name)
	}
	// img is lent by the connection (Standby.frame); the store outlives it.
	s.images[name] = &standbyImage{data: append([]byte(nil), img...), token: token, seq: seq,
		epoch: ep, from: from, at: s.Node.Sched.Now(), tctx: tctx}
	s.Stored++
}

// evictFor makes room for one more service, dropping the stalest image
// (ties broken by name for determinism) when the bound is reached.
func (s *Standby) evictFor(name string) {
	max := s.MaxImages
	if max <= 0 {
		max = DefaultMaxImages
	}
	for len(s.images) >= max {
		victim := ""
		for n, si := range s.images {
			if victim == "" || si.at < s.images[victim].at ||
				(si.at == s.images[victim].at && n < victim) {
				victim = n
			}
		}
		if victim == "" {
			return
		}
		takeBehavior(s.Node.Sched, s.images[victim].token)
		delete(s.images, victim)
		s.Evicted++
	}
}

// Have reports whether an image for the process name is stored.
func (s *Standby) Have(name string) bool { return s.images[name] != nil }

// ImageInfo reports the freshness and origin of the stored image for a
// service: the ownership epoch and sequence number it was checkpointed
// under and the in-cluster address of the node it came from. The
// detector-driven failover election compares (epoch, seq) across
// claimants so the standby holding the freshest image wins.
func (s *Standby) ImageInfo(name string) (ep, seq uint64, from netsim.Addr, ok bool) {
	si := s.images[name]
	if si == nil {
		return 0, 0, 0, false
	}
	return si.epoch, si.seq, si.from, true
}

// ImageTraceCtx returns the causal coordinate the stored image's
// guardian stamped onto the checkpoint stream (the guard span on the
// dead owner's node), or the zero context when unknown. A failover
// election links its span here, so the whole detector→claim→activate
// chain hangs off the guarded service's trace.
func (s *Standby) ImageTraceCtx(name string) obs.TraceContext {
	si := s.images[name]
	if si == nil {
		return obs.TraceContext{}
	}
	return si.tctx
}

// NumImages reports how many services have a stored image.
func (s *Standby) NumImages() int { return len(s.images) }

// ImagesFrom lists the services whose stored image came from the given
// node, sorted for deterministic iteration — the candidate set a
// failure detector consults when that node dies.
func (s *Standby) ImagesFrom(from netsim.Addr) []string {
	var out []string
	for name, si := range s.images {
		if si.from == from {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Activate restarts the named process from its latest image on the
// standby's node. Established TCP connections from the image are dropped
// (see package comment); listening and UDP sockets are restored so the
// service is immediately reachable again.
func (s *Standby) Activate(name string) (*proc.Process, error) {
	si := s.images[name]
	if si == nil {
		return nil, fmt.Errorf("failover: no image for %q", name)
	}
	img, err := ckpt.DecodeImage(si.data)
	if err != nil {
		return nil, err
	}
	// Filter the FD table: keep files, listeners and UDP sockets.
	kept := img.FDs[:0]
	for _, f := range img.FDs {
		switch {
		case f.Kind == "file":
			kept = append(kept, f)
		case f.Kind == "udp":
			// The binding survives; queued datagrams do not. The old
			// owner kept consuming its queue after this checkpoint was
			// taken, so replaying the snapshot would answer datagrams a
			// second time — the restart serves only traffic that arrives
			// under the new ownership.
			s.DroppedDatagrams += uint64(len(f.UDP.Queue))
			f.UDP.Queue = nil
			kept = append(kept, f)
		case f.Kind == "tcp" && f.TCP.Listening:
			kept = append(kept, f)
		}
	}
	img.FDs = kept
	img.Behavior = takeBehavior(s.Node.Sched, si.token)
	p, err := ckpt.Restore(s.Node, img)
	if err != nil {
		return nil, err
	}
	delete(s.images, name)
	return p, nil
}

// Guardian periodically checkpoints one process to a standby node.
type Guardian struct {
	Node    *proc.Node
	Proc    *proc.Process
	BuddyIP netsim.Addr

	// Epoch stamps shipped images with the owner's current ownership
	// epoch; the failover election prefers higher epochs regardless of
	// sequence numbers (a new owner's guardian restarts seq at 1).
	Epoch uint64

	// Span is the guardianship's open span on the owner's track (nil
	// when the observability plane is disabled; lb.AnnounceOwnership
	// opens it). Its context rides on every shipped checkpoint image so
	// a failover election on the standby links into the same trace.
	Span *obs.Span

	conn   *Conn
	ticker *simtime.Ticker
	seq    uint64
	token  uint64

	// Sent counts shipped checkpoints; LastBytes the latest image size.
	Sent      uint64
	LastBytes int

	// encBuf / msgBuf are scratch buffers reused across periodic
	// checkpoints (the transport copies payloads into the socket send
	// buffer, so reuse is safe).
	encBuf []byte
	msgBuf []byte
}

// NewGuardian starts periodic checkpointing of p to the standby at
// buddy. The first checkpoint is taken after one interval.
func NewGuardian(p *proc.Process, buddy netsim.Addr, interval simtime.Duration) (*Guardian, error) {
	if p.Node == nil {
		return nil, errors.New("failover: process has no node")
	}
	g := &Guardian{Node: p.Node, Proc: p, BuddyIP: buddy}
	sk := netstack.NewTCPSocket(g.Node.Stack)
	g.conn = newConn(sk, nil, nil)
	if err := sk.Connect(buddy, StandbyPort); err != nil {
		return nil, err
	}
	g.ticker = simtime.NewTicker(g.Node.Sched, interval, "guardian", g.checkpoint)
	g.ticker.Start()
	return g, nil
}

// Stop halts periodic checkpointing and closes the guardianship span.
func (g *Guardian) Stop() {
	g.ticker.Stop()
	g.conn.Close()
	g.Span.Close()
}

// checkpoint takes a consistent image of the (briefly signalled) process
// and ships it. The process keeps running: this is a cooperative
// checkpoint, not a freeze — sockets are snapshotted in place.
func (g *Guardian) checkpoint() {
	if g.Proc.State != proc.ProcRunning {
		return
	}
	// The checkpoint signal flushes syscall state like the migration
	// freeze does, so socket queues are quiescent for the snapshot.
	g.Proc.Signal(proc.SIGCKPT)
	img := ckpt.Checkpoint(g.Proc)
	token := registerBehavior(g.Node.Sched, img.Behavior)
	g.token = token
	g.seq++
	g.encBuf = img.AppendEncode(g.encBuf[:0])
	g.msgBuf = encodeCkptImageInto(g.msgBuf, g.Proc.Name, token, g.seq, g.Epoch, g.Span.Context(), g.encBuf)
	payload := g.msgBuf
	g.LastBytes = len(payload)
	if err := g.conn.Send(msgCkptImage, payload); err == nil {
		g.Sent++
	} else {
		// The image never left this node; its behavior entry would leak.
		takeBehavior(g.Node.Sched, token)
	}
}

// Checkpoint-image wire layout:
//
//	[8B seq][8B token][8B epoch][8B trace][8B span][4B name len][name][image]
//
// trace/span are the guardian's obs.TraceContext (zero when the plane
// is disabled).
func encodeCkptImage(name string, token, seq, ep uint64, tctx obs.TraceContext, img []byte) []byte {
	return encodeCkptImageInto(nil, name, token, seq, ep, tctx, img)
}

// encodeCkptImageInto encodes into buf, reusing its capacity when it
// fits; content is overwritten.
func encodeCkptImageInto(buf []byte, name string, token, seq, ep uint64, tctx obs.TraceContext, img []byte) []byte {
	need := 8 + 8 + 8 + 16 + 4 + len(name) + len(img)
	b := buf[:0]
	if cap(b) < need {
		b = make([]byte, 0, need)
	}
	b = b[:need]
	binary.BigEndian.PutUint64(b, seq)
	binary.BigEndian.PutUint64(b[8:], token)
	binary.BigEndian.PutUint64(b[16:], ep)
	binary.BigEndian.PutUint64(b[24:], tctx.Trace)
	binary.BigEndian.PutUint64(b[32:], tctx.Span)
	binary.BigEndian.PutUint32(b[40:], uint32(len(name)))
	copy(b[44:], name)
	copy(b[44+len(name):], img)
	return b
}

func decodeCkptImage(b []byte) (name string, token, seq, ep uint64, tctx obs.TraceContext, img []byte, err error) {
	r := wire.NewReader(b)
	seq, token, ep = r.U64(), r.U64(), r.U64()
	tctx = obs.TraceContext{Trace: r.U64(), Span: r.U64()}
	name = string(r.Span())
	if r.Err() != nil {
		return "", 0, 0, 0, obs.TraceContext{}, nil, r.Err()
	}
	return name, token, seq, ep, tctx, r.Rest(), nil
}

// Package openarena models the OpenArena (Quake III engine) multiplayer
// server of §VI-B: a UDP game server updating its clients 20 times per
// second, live-migrated mid-game with 24 connected players. The Fig 4
// experiment captures server packets at the clients (tcpdump-style) and
// measures the delay the migration imposes on the snapshot cadence.
package openarena

import (
	"encoding/binary"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// GamePort is the Quake III / OpenArena server port.
const GamePort = 27960

// Protocol message sizes: clients send small usercmd packets; the server
// answers with game-state snapshots.
const (
	UsercmdBytes  = 48
	SnapshotBytes = 256
)

// FramePeriod is the server frame time: 20 updates per second is the
// engine default (§VI-B).
const FramePeriod simtime.Duration = 50 * 1e6

// ServerConfig shapes the game server.
type ServerConfig struct {
	// MemPages is the server's address space; DirtyPerFrame pages are
	// written each frame (entity state churn), which determines how much
	// memory the final freeze round must move.
	MemPages      uint64
	DirtyPerFrame uint64
	CPUDemand     float64
}

// DefaultServerConfig approximates a busy Quake III server: a 32 MiB
// working set with ~1.6 MB touched per frame.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		MemPages:      8192,
		DirtyPerFrame: 400,
		CPUDemand:     0.6,
	}
}

type clientKey struct {
	ip   uint32
	port uint16
}

// fillEntityPage fills buf with deterministic, dense (never-zero)
// pseudo-entity bytes, seeded per page so pages differ. Density is the
// point: the checkpoint codec's zero/sparse elision must see these
// pages as the incompressible entity state a real server carries.
func fillEntityPage(buf []byte, seed uint64) {
	x := seed*0x9e3779b97f4a7c15 + 0xda942042e4dd58b5
	for j := range buf {
		x ^= x << 13
		x ^= x >> 7
		buf[j] = byte(x%255) + 1
	}
}

// Server is the game server handle.
type Server struct {
	Proc *proc.Process
	// Frames counts server frames; SnapshotsSent counts outgoing updates.
	Frames        uint64
	SnapshotsSent uint64
}

// StartServer spawns the game server process on node n, bound to the
// cluster IP (the node's default-route source address). The client table
// lives in the server's program state and travels with the process.
func StartServer(n *proc.Node, cfg ServerConfig) (*Server, error) {
	s := &Server{}
	p := n.Spawn("oa_ded", 2)
	p.CPUDemand = cfg.CPUDemand
	v := p.AS.Mmap(cfg.MemPages*proc.PageSize, "rw-")
	// A real game server's working set is dense — entity arrays, BSP
	// data, textures — not zeros, so seed every page with incompressible
	// content. This matters for migration fidelity: the checkpoint
	// pipeline elides zero and near-zero pages, and a sparse seeding
	// would let it shrink the transfer (and the measured downtime) far
	// below what the paper's workload produced.
	pageBuf := make([]byte, proc.PageSize)
	for i := uint64(0); i < cfg.MemPages; i++ {
		fillEntityPage(pageBuf, i)
		if err := p.AS.Write(v.Start+i*proc.PageSize, pageBuf); err != nil {
			return nil, err
		}
	}
	p.FDs.Install(&proc.RegularFile{Path: "/usr/share/openarena/baseoa/pak0.pk3"})

	us := netstack.NewUDPSocket(n.Stack)
	cluster, err := n.Stack.SourceAddrFor(0) // the default-route source: the cluster IP
	if err != nil {
		return nil, err
	}
	if err := us.Bind(cluster, GamePort); err != nil {
		return nil, err
	}
	p.FDs.Install(&proc.UDPFile{Sock: us})

	clients := make(map[clientKey]uint32) // key -> last usercmd sequence
	order := make([]clientKey, 0, 32)     // deterministic send order
	frame := uint64(0)
	heap := v.Start
	p.Tick = func(self *proc.Process) {
		frame++
		s.Frames++
		_, udp := self.Sockets()
		if len(udp) == 0 {
			return
		}
		sock := udp[0]
		// Drain usercmds; register clients.
		for {
			dg, ok := sock.Recv()
			if !ok {
				break
			}
			if len(dg.Payload) >= 4 {
				k := clientKey{uint32(dg.SrcIP), dg.SrcPort}
				if _, known := clients[k]; !known {
					order = append(order, k)
				}
				clients[k] = binary.BigEndian.Uint32(dg.Payload)
			}
		}
		// Entity state churn rewrites part of the working set with fresh
		// (dense) entity data: the frame stamp makes the content new,
		// the rest of the scratch page stays dense so the checkpoint
		// codec cannot elide it.
		binary.BigEndian.PutUint64(pageBuf, frame|1<<56)
		for i := uint64(0); i < cfg.DirtyPerFrame; i++ {
			pg := (frame*cfg.DirtyPerFrame + i) % cfg.MemPages
			_ = self.AS.Write(heap+pg*proc.PageSize, pageBuf)
		}
		// Send one snapshot per client per frame.
		snap := make([]byte, SnapshotBytes)
		binary.BigEndian.PutUint64(snap, frame)
		for _, k := range order {
			if err := sock.SendTo(netsim.Addr(k.ip), k.port, snap); err == nil {
				s.SnapshotsSent++
			}
		}
	}
	s.Proc = p
	n.StartLoop(p, FramePeriod)
	return s, nil
}

// Client is one simulated player: it sends usercmds at the server frame
// rate and counts the snapshots it receives.
type Client struct {
	Sock *netstack.UDPSocket
	// Received counts snapshots; LastFrame is the newest frame seen;
	// Seq is the usercmd sequence counter.
	Received  uint64
	LastFrame uint64
	Seq       uint32

	ticker *simtime.Ticker
}

// NewClient creates a player on the external stack and starts its
// command loop toward the cluster address.
func NewClient(st *netstack.Stack, cluster netsim.Addr) (*Client, error) {
	c := &Client{}
	src, err := st.SourceAddrFor(cluster)
	if err != nil {
		return nil, err
	}
	c.Sock = netstack.NewUDPSocket(st)
	c.Sock.BindEphemeral(src)
	c.Sock.OnReadable = func() {
		for {
			dg, ok := c.Sock.Recv()
			if !ok {
				return
			}
			c.Received++
			if len(dg.Payload) >= 8 {
				if f := binary.BigEndian.Uint64(dg.Payload); f > c.LastFrame {
					c.LastFrame = f
				}
			}
		}
	}
	c.ticker = simtime.NewTicker(st.Scheduler(), FramePeriod, "oa.client", func() {
		c.Seq++
		cmd := make([]byte, UsercmdBytes)
		binary.BigEndian.PutUint32(cmd, c.Seq)
		_ = c.Sock.SendTo(cluster, GamePort, cmd)
	})
	c.ticker.Start()
	return c, nil
}

// Stop halts the client's command loop.
func (c *Client) Stop() { c.ticker.Stop() }

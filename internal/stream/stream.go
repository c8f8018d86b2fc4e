// Package stream implements the multimedia-streaming use case the paper
// names as its main future perspective (§VIII): a constant-bitrate media
// server whose subscribers hold small playout buffers, live-migrated
// mid-stream. Whether viewers notice depends on the freeze time against
// the buffer depth — precopy live migration stays under it, stop-and-copy
// does not.
package stream

import (
	"encoding/binary"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// Port is the media server's TCP service port (RTSP's well-known port).
const Port = 8554

// ServerConfig shapes the media server.
type ServerConfig struct {
	// BitrateKbps is the per-subscriber media bitrate.
	BitrateKbps int
	// ChunkPeriod is the pacing interval: one chunk per subscriber per
	// period.
	ChunkPeriod simtime.Duration
	// MemPages of working set (encoder state etc.), lightly dirtied.
	MemPages uint64
}

// DefaultServerConfig streams 1.5 Mb/s in 40 ms chunks.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{BitrateKbps: 1500, ChunkPeriod: 40 * 1e6, MemPages: 512}
}

// ChunkBytes returns the payload size of one chunk (8-byte sequence
// header included).
func (c ServerConfig) ChunkBytes() int {
	return int(int64(c.BitrateKbps) * 1000 / 8 * int64(c.ChunkPeriod) / 1e9)
}

// Server is the handle to the media server process.
type Server struct {
	Proc *proc.Process
	// ChunksSent counts media chunks across all subscribers.
	ChunksSent uint64
}

// Start spawns the streaming server on node n; it listens on the node's
// default-route source address (the cluster IP).
func Start(n *proc.Node, cfg ServerConfig) (*Server, error) {
	s := &Server{}
	p := n.Spawn("mediad", 2)
	p.CPUDemand = 0.3
	v := p.AS.Mmap(cfg.MemPages*proc.PageSize, "rw-")
	// Fault the working set in: encoder tables, media cache.
	for i := uint64(0); i < cfg.MemPages; i += 2 {
		if err := p.AS.Write(v.Start+i*proc.PageSize, []byte{0x4d, byte(i)}); err != nil {
			return nil, err
		}
	}

	addr, err := n.Stack.SourceAddrFor(0)
	if err != nil {
		return nil, err
	}
	lst := netstack.NewTCPSocket(n.Stack)
	if err := lst.Listen(addr, Port); err != nil {
		return nil, err
	}
	p.FDs.Install(&proc.TCPFile{Sock: lst})
	lst.OnAccept = func(ch *netstack.TCPSocket) {
		p.FDs.Install(&proc.TCPFile{Sock: ch})
	}

	// Per-subscriber sequence counters keyed by connection identity so
	// they survive migration (the socket objects are rebuilt, the ports
	// are not).
	seqs := make(map[uint16]uint64)
	chunk := make([]byte, cfg.ChunkBytes())
	tick := uint64(0)
	p.Tick = func(self *proc.Process) {
		tick++
		_ = self.AS.Touch(v.Start + uint64(tick%cfg.MemPages)*proc.PageSize)
		tcp, _ := self.Sockets()
		for _, sk := range tcp {
			if sk.State != netstack.TCPEstablished {
				continue
			}
			sk.Discard() // subscriber keepalives
			seq := seqs[sk.RemotePort]
			seqs[sk.RemotePort] = seq + 1
			binary.BigEndian.PutUint64(chunk, seq)
			if err := sk.Send(chunk); err == nil {
				s.ChunksSent++
			}
		}
	}
	s.Proc = p
	n.StartLoop(p, cfg.ChunkPeriod)
	return s, nil
}

// Client is one subscriber with a playout buffer.
type Client struct {
	Sock *netstack.TCPSocket

	// BufferedBytes is the current playout buffer depth; playback starts
	// once PrebufferBytes have accumulated and drains at the media rate.
	BufferedBytes  int
	PrebufferBytes int
	playing        bool

	// Rebuffers counts stalls: play ticks that found too little data.
	Rebuffers int
	// ChunksReceived counts whole chunks; OutOfOrder counts sequence
	// regressions (must stay zero: TCP plus migration must not reorder).
	ChunksReceived uint64
	OutOfOrder     int
	nextSeq        uint64

	drainPerTick int
	chunkBytes   int
	header       []byte
	ticker       *simtime.Ticker
}

// NewClient connects a subscriber from an external stack to the cluster
// address and starts its playout clock.
func NewClient(st *netstack.Stack, cluster netsim.Addr, cfg ServerConfig, prebuffer simtime.Duration) (*Client, error) {
	c := &Client{
		chunkBytes:     cfg.ChunkBytes(),
		drainPerTick:   cfg.ChunkBytes(),
		PrebufferBytes: int(int64(cfg.BitrateKbps) * 1000 / 8 * int64(prebuffer) / 1e9),
	}
	c.Sock = netstack.NewTCPSocket(st)
	if err := c.Sock.Connect(cluster, Port); err != nil {
		return nil, err
	}
	c.Sock.OnReadable = func() {
		data := c.Sock.Recv()
		c.BufferedBytes += len(data)
		// Track chunk sequence numbers across the byte stream.
		for _, b := range data {
			c.header = append(c.header, b)
			if len(c.header) == c.chunkBytes {
				seq := binary.BigEndian.Uint64(c.header)
				if seq < c.nextSeq {
					c.OutOfOrder++
				}
				c.nextSeq = seq + 1
				c.ChunksReceived++
				c.header = c.header[:0]
			}
		}
	}
	// The playout clock: drain one chunk's worth per period once the
	// prebuffer filled; an under-run is a visible rebuffering stall that
	// resets the prebuffer phase.
	c.ticker = simtime.NewTicker(st.Scheduler(), cfg.ChunkPeriod, "stream.play", func() {
		if !c.playing {
			if c.BufferedBytes >= c.PrebufferBytes {
				c.playing = true
			}
			return
		}
		if c.BufferedBytes < c.drainPerTick {
			c.Rebuffers++
			c.playing = false
			return
		}
		c.BufferedBytes -= c.drainPerTick
	})
	c.ticker.Start()
	return c, nil
}

// Stop halts the playout clock.
func (c *Client) Stop() { c.ticker.Stop() }

// Playing reports whether the client is currently playing (not
// prebuffering after a stall).
func (c *Client) Playing() bool { return c.playing }

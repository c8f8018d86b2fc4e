package dve

import (
	"errors"
	"fmt"
	"strconv"

	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// ZoneServerConfig shapes the zone server processes.
type ZoneServerConfig struct {
	// LoopPeriod is the real-time loop rate: 20 updates per second, the
	// Quake III default.
	LoopPeriod simtime.Duration
	// MemPages is the server's working-set size.
	MemPages uint64
}

// DefaultZoneConfig is calibrated so five nodes × 20 zones × 100 clients
// sit near 78% CPU, matching the opening of Fig 5e.
func DefaultZoneConfig() ZoneServerConfig {
	return ZoneServerConfig{
		LoopPeriod: 50 * 1e6, // 50ms → 20 Hz
		MemPages:   64,
	}
}

// baseCPU is the fixed demand of an empty zone; perClientCPU scales with
// population ("CPU consumption of a zone server process grows
// proportionally with the number of clients present", §VI-C).
const (
	baseCPU      = 0.01
	perClientCPU = 0.00068
)

// The loop issues one database update every dbEveryTicks iterations and
// one state-sync message toward its neighbors every syncEveryTicks; zone
// i listens for clients on basePort+i of the cluster IP.
const (
	dbEveryTicks   = 10
	syncEveryTicks = 10
	basePort       = 10000
)

// ErrZoneConfig is the cause of every SpawnZoneServer (and so dve.New)
// failure that comes from a ZoneServerConfig no zone server can run on.
var ErrZoneConfig = errors.New("dve: invalid zone server config")

// SpawnZoneServer creates the zone server process for zone z on node n:
// a listening TCP socket on the cluster IP (clients of this zone connect
// here), one MySQL session to the database node, a small working set, and
// the real-time loop that processes events, updates the world state in
// the database and tracks its CPU demand from the zone population.
//
// population is called each loop iteration to learn the current client
// count (the aggregate stand-in for per-client packet processing).
//
// A config without a working set or without a positive loop period is
// rejected with ErrZoneConfig: the loop walks MemPages and re-arms every
// LoopPeriod.
func SpawnZoneServer(n *proc.Node, z ZoneID, clusterIP, dbIP netsim.Addr,
	cfg ZoneServerConfig, population func(ZoneID) int) (*proc.Process, error) {

	if cfg.MemPages == 0 {
		return nil, fmt.Errorf("%w: MemPages is 0", ErrZoneConfig)
	}
	if cfg.LoopPeriod <= 0 {
		return nil, fmt.Errorf("%w: LoopPeriod %v is not positive", ErrZoneConfig, cfg.LoopPeriod)
	}
	p := n.Spawn(fmt.Sprintf("zone_serv%d", int(z)), 2)
	v := p.AS.Mmap(cfg.MemPages*proc.PageSize, "rw-")
	for i := uint64(0); i < cfg.MemPages; i += 8 {
		if err := p.AS.Write(v.Start+i*proc.PageSize, []byte{byte(z), byte(i)}); err != nil {
			return nil, err
		}
	}
	p.FDs.Install(&proc.RegularFile{Path: fmt.Sprintf("/srv/zones/%d.map", int(z))})

	lst := netstack.NewTCPSocket(n.Stack)
	if err := lst.Listen(clusterIP, basePort+uint16(z)); err != nil {
		return nil, err
	}
	p.FDs.Install(&proc.TCPFile{Sock: lst})

	db := netstack.NewTCPSocket(n.Stack)
	if err := db.Connect(dbIP, DBPort); err != nil {
		return nil, err
	}
	p.FDs.Install(&proc.TCPFile{Sock: db})

	zone := z
	ticks := 0
	heapStart := v.Start
	// The loop runs 20 times a second per zone for the whole simulation,
	// so it keeps its scratch across ticks: the neighbor list and one
	// message buffer (TCPSocket.Send copies what it queues).
	var neighbors []*netstack.TCPSocket
	var msg []byte
	p.Tick = func(self *proc.Process) {
		ticks++
		pop := population(zone)
		self.CPUDemand = baseCPU + perClientCPU*float64(pop)
		// The real-time loop touches its working set...
		_ = self.AS.Touch(heapStart + uint64(ticks%int(cfg.MemPages))*proc.PageSize)
		// ...drains whatever arrived, sorting sessions by role...
		tcp, _ := self.Sockets()
		var dbSock *netstack.TCPSocket
		neighbors = neighbors[:0]
		for _, sk := range tcp {
			if sk.State != netstack.TCPEstablished {
				continue
			}
			sk.Discard() // consume replies / client traffic / neighbor sync
			if sk.RemotePort == DBPort {
				dbSock = sk
			} else {
				neighbors = append(neighbors, sk)
			}
		}
		// ...repeatedly updates the virtual world in the database...
		if dbSock != nil && ticks%dbEveryTicks == 0 {
			msg = appendCommand(msg[:0], "SET zone", int(zone), " pop", pop)
			_ = dbSock.Send(msg)
		}
		// ...and exchanges boundary state with neighboring zone servers.
		if ticks%syncEveryTicks == 0 && len(neighbors) > 0 {
			msg = appendCommand(msg[:0], "SYNC z", int(zone), " t", ticks)
			for _, nb := range neighbors {
				_ = nb.Send(msg)
			}
		}
	}
	p.CPUDemand = baseCPU + perClientCPU*float64(population(zone))
	n.StartLoop(p, cfg.LoopPeriod)
	return p, nil
}

// appendCommand appends "<verb><a><sep><b>;" to buf — the shape of both
// wire messages the loop sends — without allocating once buf has grown.
func appendCommand(buf []byte, verb string, a int, sep string, b int) []byte {
	buf = append(buf, verb...)
	buf = strconv.AppendInt(buf, int64(a), 10)
	buf = append(buf, sep...)
	buf = strconv.AppendInt(buf, int64(b), 10)
	return append(buf, ';')
}

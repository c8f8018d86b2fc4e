package dve

import (
	"fmt"

	"dvemig/internal/lb"
	"dvemig/internal/migration"
	"dvemig/internal/netstack"
	"dvemig/internal/obs"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/trace"
	"dvemig/internal/xlat"
)

// Config parameterizes the §VI-C experiment.
type Config struct {
	Nodes    int
	Clients  int
	Duration simtime.Duration
	// LB enables the conductor middleware (Fig 5f vs Fig 5e).
	LB        bool
	LBConfig  lb.Config
	MigConfig migration.Config
	Zone      ZoneServerConfig

	// NeighborLinks connects every zone server with its right and down
	// grid neighbors over in-cluster TCP (the inter-server connections
	// §VI-C leaves as future work; supported here via both-ends
	// migration).
	NeighborLinks bool

	// Movement model: mobileFrac of middle-row clients drift toward the
	// corners, each stepping one zone per second with MoveProb, starting
	// at MoveStart.
	MoveProb  float64
	MoveStart simtime.Duration

	Seed uint64

	// Observe attaches an observability plane (span tracing + metrics)
	// to the run: migrators and conductors get instrumented, and
	// Simulation.Obs carries the plane for capture/export afterwards.
	Observe bool
}

// DefaultConfig reproduces the paper's setup: 5 nodes, 10,000 clients,
// ~15 minutes.
func DefaultConfig() Config {
	lbCfg := lb.DefaultConfig()
	// The DVE drift is gradual; a tighter imbalance trigger lets the
	// middleware keep pace with it (Fig 5f converges over many small
	// adjustments).
	lbCfg.ImbalanceThreshold = 0.08
	return Config{
		Nodes:     5,
		Clients:   10000,
		Duration:  900 * 1e9,
		LB:        false,
		LBConfig:  lbCfg,
		MigConfig: migration.DefaultConfig(),
		Zone:      DefaultZoneConfig(),
		MoveProb:  0.02,
		MoveStart: 120 * 1e9,
		Seed:      2010,
	}
}

// mobileFrac is the share of middle-row clients that drift toward the
// corners; sampleEvery is the cadence of the CPU / process / update-rate
// series.
const (
	mobileFrac                   = 0.20
	sampleEvery simtime.Duration = 5 * 1e9
)

// Results collects the experiment's time series and migration log.
type Results struct {
	// CPU holds per-node CPU percentage series (Fig 5e/5f).
	CPU *trace.SeriesSet
	// Procs holds per-node zone-server counts (Fig 5d).
	Procs *trace.SeriesSet
	// UpdateRate holds the effective client-update rate per node in
	// updates/s: 20 Hz while the node keeps up, degrading once demand
	// exceeds capacity — the interactivity loss that motivates the whole
	// system ("adversely affecting the response time and damaging the
	// interactivity", §I).
	UpdateRate *trace.SeriesSet
	// Migrations is the number of completed process migrations.
	Migrations int
	// FreezeTimes of every migration performed by the middleware.
	FreezeTimes []simtime.Duration
	// Events is the concatenated conductor decision log.
	Events []lb.Event
	// FinalSpread is max-min node CPU (%) over the last quarter of the
	// run — the imbalance measure the paper discusses.
	FinalSpread float64
	// OutageClientSeconds is the total client-visible unavailability the
	// balancing caused: Σ clients × freeze time over all migrations (a
	// few client-seconds at most).
	OutageClientSeconds float64
}

// Simulation is the assembled experiment.
type Simulation struct {
	Config  Config
	Cluster *proc.Cluster
	DBNode  *proc.Node
	DB      *DBServer

	Migrators  []*migration.Migrator
	Conductors []*lb.Conductor
	Movement   *MovementModel

	// Obs is the run's observability plane (nil unless Config.Observe).
	Obs *obs.Obs

	zoneProcs map[ZoneID]*proc.Process
	pop       Population

	cpuSeries  *trace.SeriesSet
	procSeries *trace.SeriesSet
	rateSeries *trace.SeriesSet
}

// New builds the cluster, database, zone servers and (optionally) the
// load-balancing middleware.
func New(cfg Config) (*Simulation, error) {
	sched := simtime.NewScheduler()
	s := &Simulation{
		Config:     cfg,
		Cluster:    proc.NewCluster(sched, cfg.Nodes),
		zoneProcs:  make(map[ZoneID]*proc.Process),
		cpuSeries:  trace.NewSeriesSet(),
		procSeries: trace.NewSeriesSet(),
		rateSeries: trace.NewSeriesSet(),
	}
	// The database machine is a sixth node without conductor/migd; it
	// still runs a translation daemon so in-cluster DB sessions can be
	// redirected when their zone server migrates.
	s.DBNode = s.Cluster.AddNode("db")
	var err error
	if s.DB, err = StartDBServer(s.DBNode); err != nil {
		return nil, err
	}
	if _, err := xlat.StartTransd(s.DBNode.Stack, s.DBNode.LocalIP); err != nil {
		return nil, err
	}

	if cfg.Observe {
		s.Obs = obs.New(sched)
	}
	for _, n := range s.Cluster.Nodes[:cfg.Nodes] {
		m, err := migration.NewMigrator(n, cfg.MigConfig)
		if err != nil {
			return nil, err
		}
		if s.Obs != nil {
			m.SetObs(s.Obs)
		}
		s.Migrators = append(s.Migrators, m)
	}

	// Movement model and initial population.
	s.Movement = NewMovementModel(cfg.Clients, mobileFrac, cfg.MoveProb, simtime.NewRand(cfg.Seed))
	s.pop = s.Movement.Population()

	// Zone servers on their home nodes (Fig 5a assignment).
	popFn := func(z ZoneID) int { return s.pop[z] }
	for z := ZoneID(0); z < GridW*GridH; z++ {
		home := z.HomeNode()
		if home >= cfg.Nodes {
			return nil, fmt.Errorf("dve: zone %d has no home with %d nodes", z, cfg.Nodes)
		}
		n := s.Cluster.Nodes[home]
		p, err := SpawnZoneServer(n, z, s.Cluster.ClusterIP, s.DBNode.LocalIP, cfg.Zone, popFn)
		if err != nil {
			return nil, err
		}
		s.zoneProcs[z] = p
	}
	if cfg.NeighborLinks {
		if err := s.connectNeighbors(); err != nil {
			return nil, err
		}
	}

	if cfg.LB {
		for i, n := range s.Cluster.Nodes[:cfg.Nodes] {
			cd, err := lb.NewConductor(n, s.Migrators[i], cfg.LBConfig)
			if err != nil {
				return nil, err
			}
			if s.Obs != nil {
				cd.SetObs(s.Obs)
			}
			s.Conductors = append(s.Conductors, cd)
		}
	}

	// Movement ticker.
	mv := simtime.NewTicker(sched, 1e9, "dve.move", func() {
		if sched.Now() >= cfg.MoveStart {
			s.Movement.Tick()
			s.pop = s.Movement.Population()
		}
	})
	mv.Start()

	// Sampler.
	sm := simtime.NewTicker(sched, sampleEvery, "dve.sample", s.sample)
	sm.Start()
	return s, nil
}

// CaptureObs harvests the cluster's layer counters into the plane's
// registry and freezes the run's observability artifacts under label.
// Nil when the run is unobserved.
func (s *Simulation) CaptureObs(label string) *obs.Capture {
	if s.Obs == nil {
		return nil
	}
	obs.HarvestCluster(s.Obs.Metrics, s.Cluster)
	return s.Obs.Capture(label)
}

// NeighborBase is the first neighbor-link port: zone i accepts
// neighbor-server connections on NeighborBase+i of its home node's
// in-cluster address.
const NeighborBase = 20000

// connectNeighbors links every zone server with its right and down grid
// neighbors over the in-cluster network.
func (s *Simulation) connectNeighbors() error {
	for z := ZoneID(0); z < GridW*GridH; z++ {
		n := s.Cluster.Nodes[z.HomeNode()]
		lst := netstack.NewTCPSocket(n.Stack)
		if err := lst.Listen(n.LocalIP, NeighborBase+uint16(z)); err != nil {
			return err
		}
		owner := s.zoneProcs[z]
		lst.OnAccept = func(ch *netstack.TCPSocket) {
			owner.FDs.Install(&proc.TCPFile{Sock: ch})
		}
		owner.FDs.Install(&proc.TCPFile{Sock: lst})
	}
	for z := ZoneID(0); z < GridW*GridH; z++ {
		x, y := z.XY()
		var targets []ZoneID
		if x+1 < GridW {
			targets = append(targets, ZoneAt(x+1, y))
		}
		if y+1 < GridH {
			targets = append(targets, ZoneAt(x, y+1))
		}
		from := s.Cluster.Nodes[z.HomeNode()]
		for _, w := range targets {
			to := s.Cluster.Nodes[w.HomeNode()]
			sk := netstack.NewTCPSocket(from.Stack)
			if err := sk.Connect(to.LocalIP, NeighborBase+uint16(w)); err != nil {
				return err
			}
			s.zoneProcs[z].FDs.Install(&proc.TCPFile{Sock: sk})
		}
	}
	// Let all handshakes complete before the simulation proper starts.
	s.Cluster.Sched.RunFor(1e9)
	return nil
}

func (s *Simulation) sample() {
	now := s.Cluster.Sched.Now()
	hz := float64(1e9) / float64(s.Config.Zone.LoopPeriod)
	for _, n := range s.Cluster.Nodes[:s.Config.Nodes] {
		s.cpuSeries.Get(n.Name).Add(now, n.Utilization()*100)
		s.procSeries.Get(n.Name).Add(now, float64(countZoneServers(n)))
		// Effective update rate: oversubscription stretches every
		// real-time loop iteration by demand/capacity, and queueing
		// already erodes deadlines as the CPU approaches saturation
		// (a linear knee above 90% utilisation).
		demand := 0.0
		for _, p := range n.Processes() {
			if p.State == proc.ProcRunning {
				demand += p.CPUDemand
			}
		}
		util := demand / n.Cores
		rate := hz
		switch {
		case util > 1:
			rate = hz * 0.8 / util
		case util > 0.9:
			rate = hz * (1 - 2*(util-0.9))
		}
		s.rateSeries.Get(n.Name).Add(now, rate)
	}
}

func countZoneServers(n *proc.Node) int {
	c := 0
	for _, p := range n.Processes() {
		if len(p.Name) > 9 && p.Name[:9] == "zone_serv" {
			c++
		}
	}
	return c
}

// Run executes the simulation and gathers the results. It ends the
// simulation: the cluster's packets and its processes' page memory go to
// the next one (proc.Cluster.Retire), so nothing may step the scheduler
// after Run, and a process's memory reads as empty; the cluster's other
// state and its counters stay readable.
func (s *Simulation) Run() *Results {
	s.Cluster.Sched.RunUntil(s.Config.Duration)
	s.Cluster.Retire()
	r := &Results{CPU: s.cpuSeries, Procs: s.procSeries, UpdateRate: s.rateSeries}
	for _, m := range s.Migrators {
		for _, mm := range m.Completed {
			r.Migrations++
			r.FreezeTimes = append(r.FreezeTimes, mm.FreezeTime)
			// Clients affected by the freeze, from the process's demand
			// at freeze time.
			clients := (mm.ProcCPUDemand - baseCPU) / perClientCPU
			if clients < 0 {
				clients = 0
			}
			r.OutageClientSeconds += clients * mm.FreezeTime.Seconds()
		}
	}
	for _, cd := range s.Conductors {
		r.Events = append(r.Events, cd.Events...)
	}
	r.FinalSpread = s.finalSpread()
	return r
}

// finalSpread computes max-min average node CPU over the last quarter.
func (s *Simulation) finalSpread() float64 {
	from := s.Config.Duration * 3 / 4
	lo, hi := 1e18, -1e18
	for _, name := range s.cpuSeries.Names() {
		mean := s.cpuSeries.Get(name).After(from).Mean()
		if mean < lo {
			lo = mean
		}
		if mean > hi {
			hi = mean
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// NodeCPUMean returns a node's average CPU (%) over [from, end].
func (r *Results) NodeCPUMean(name string, from simtime.Duration) float64 {
	return r.CPU.Get(name).After(from).Mean()
}

// WorstUpdateRate returns the lowest effective update rate any node hit —
// the interactivity floor of the run (20 means nobody ever lagged).
func (r *Results) WorstUpdateRate() float64 {
	worst := 1e18
	for _, name := range r.UpdateRate.Names() {
		if m := r.UpdateRate.Get(name).Min(); m < worst {
			worst = m
		}
	}
	if worst == 1e18 {
		return 0
	}
	return worst
}

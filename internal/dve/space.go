// Package dve implements the distributed-virtual-environment workload of
// §VI-C: a 10×10 zone grid served by 100 zone-server processes spread
// over five nodes, 10,000 clients that drift from the middle regions
// toward the up-left and down-right corners, a MySQL-style database
// server each zone server keeps a session with, and the simulation
// driver that produces the Fig 5d/5e/5f time series with and without the
// load-balancing middleware.
package dve

import "dvemig/internal/simtime"

// Grid dimensions (§VI-C: "one hundred zones following a ten times ten
// grid shape").
const (
	GridW = 10
	GridH = 10
	// ZonesPerNode with five DVE nodes: two grid rows per node.
	ZonesPerNode = GridW * GridH / 5
)

// ZoneID identifies a zone; zones are row-major: id = y*GridW + x.
type ZoneID int

// XY returns the zone's grid coordinates.
func (z ZoneID) XY() (x, y int) { return int(z) % GridW, int(z) / GridW }

// ZoneAt returns the id of the zone at (x, y).
func ZoneAt(x, y int) ZoneID { return ZoneID(y*GridW + x) }

// HomeNode returns the index (0-based) of the node initially responsible
// for the zone: node i serves grid rows 2i and 2i+1 (Fig 5a).
func (z ZoneID) HomeNode() int {
	_, y := z.XY()
	return y / 2
}

// Client is one simulated participant.
type Client struct {
	X, Y int
	// Mobile clients walk one zone at a time toward (TX, TY).
	Mobile bool
	TX, TY int
}

// Zone returns the client's current zone.
func (c *Client) Zone() ZoneID { return ZoneAt(c.X, c.Y) }

// Arrived reports whether a mobile client reached its target.
func (c *Client) Arrived() bool { return c.X == c.TX && c.Y == c.TY }

// Step moves a mobile client one zone toward its target (diagonal-first
// walking).
func (c *Client) Step() {
	if !c.Mobile || c.Arrived() {
		return
	}
	if c.X < c.TX {
		c.X++
	} else if c.X > c.TX {
		c.X--
	}
	if c.Y < c.TY {
		c.Y++
	} else if c.Y > c.TY {
		c.Y--
	}
}

// Population counts clients per zone.
type Population [GridW * GridH]int

// MovementModel drives the §VI-C scenario: clients start uniformly
// distributed; a fraction of those in the middle rows is instructed to
// gradually move toward the up-left or down-right corner ("this sort of
// clustering of entities in large-scale environments is very common").
type MovementModel struct {
	// Clients are held by value, in one allocation: Tick and Population
	// walk all of them once per simulated second.
	Clients []Client
	// MoveProb is the per-second probability that a mobile client takes
	// one step.
	MoveProb float64
	rand     *simtime.Rand
}

// NewMovementModel places nClients uniformly and marks mobileFrac of the
// middle-row clients mobile. Upper-middle rows head up-left, lower-middle
// rows head down-right; targets spread over the corner 2×2 region so
// several corner zone servers heat up.
func NewMovementModel(nClients int, mobileFrac, moveProb float64, rand *simtime.Rand) *MovementModel {
	perZone := nClients / (GridW * GridH)
	m := &MovementModel{Clients: make([]Client, 0, perZone*GridW*GridH), MoveProb: moveProb, rand: rand}
	corners := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	k := 0
	for y := 0; y < GridH; y++ {
		for x := 0; x < GridW; x++ {
			for i := 0; i < perZone; i++ {
				c := Client{X: x, Y: y}
				middle := y >= 2 && y <= 7
				if middle && rand.Float64() < mobileFrac {
					c.Mobile = true
					corner := corners[k%len(corners)]
					k++
					if y <= 4 { // upper middle heads up-left
						c.TX, c.TY = corner[0], corner[1]
					} else { // lower middle heads down-right
						c.TX, c.TY = GridW-1-corner[0], GridH-1-corner[1]
					}
				}
				m.Clients = append(m.Clients, c)
			}
		}
	}
	return m
}

// Tick advances one second of movement.
func (m *MovementModel) Tick() {
	for i := range m.Clients {
		if c := &m.Clients[i]; c.Mobile && !c.Arrived() && m.rand.Float64() < m.MoveProb {
			c.Step()
		}
	}
}

// Population returns the current per-zone client counts.
func (m *MovementModel) Population() Population {
	var pop Population
	for i := range m.Clients {
		pop[m.Clients[i].Zone()]++
	}
	return pop
}

// MobileCount reports how many clients are marked mobile.
func (m *MovementModel) MobileCount() int {
	n := 0
	for i := range m.Clients {
		if m.Clients[i].Mobile {
			n++
		}
	}
	return n
}

// ArrivedCount reports how many mobile clients reached their corner.
func (m *MovementModel) ArrivedCount() int {
	n := 0
	for i := range m.Clients {
		if c := &m.Clients[i]; c.Mobile && c.Arrived() {
			n++
		}
	}
	return n
}

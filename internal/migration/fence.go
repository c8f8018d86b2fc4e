package migration

import (
	"dvemig/internal/netstack"
	"dvemig/internal/proc"
)

// FenceService records that ownership of the named service moved to a
// higher epoch elsewhere and dismantles every piece of local serving
// state that predates it. This is the healed-split-brain path: a node
// that was isolated while a standby took over still holds the service's
// process, sockets, capture filters and translation rules — and because
// the broadcast router feeds it every client packet, it would silently
// serve alongside the real owner. Fencing tears all of that down
// without emitting a single packet (sockets are unhashed before they
// close, so no FIN or RST escapes) and raises the capture/translation
// fences so nothing captured or installed under the old epoch can ever
// be replayed or re-established.
//
// Returns true when local serving state was dismantled. A call at or
// below the local watermark is a no-op: an owner never fences itself on
// its own (or an older) epoch.
func (m *Migrator) FenceService(name string, ep uint64) bool {
	if ep <= m.Epochs.Current(name) {
		return false
	}
	m.Epochs.Observe(name, ep)
	dismantled := false
	for _, p := range m.Node.Processes() {
		if p.Name != name || p.State == proc.ProcExited {
			continue
		}
		dismantled = true
		ports := make(map[uint16]bool)
		tcp, udp := p.Sockets()
		for _, sk := range tcp {
			ports[sk.LocalPort] = true
		}
		for _, us := range udp {
			ports[us.LocalPort] = true
		}
		m.reapSilently(p)
		for port := range ports {
			m.Capture.FencePort(port, ep)
			m.Transd.Translator().FenceRemotePort(port, ep)
		}
	}
	return dismantled
}

// reapSilently dismantles a process that must not be heard from again —
// a fenced owner, a post-copy arrival whose source is gone — without
// emitting a single packet: unhash first, then close. A
// closed-but-hashed TCP socket would emit a FIN; a node that is not (or
// never was) the legitimate owner of a complete process must stay mute.
func (m *Migrator) reapSilently(p *proc.Process) {
	m.Node.StopLoop(p)
	tcp, udp := p.Sockets()
	for _, sk := range tcp {
		if !sk.Unhashed() {
			sk.Unhash()
		}
		sk.Close()
	}
	for _, us := range udp {
		if !us.Unhashed() {
			us.Unhash()
		}
		us.Close()
	}
	p.State = proc.ProcExited
	m.Node.Detach(p)
}

// SuspendService quiesces every local running process of the named
// service without destroying state: loops are stopped and sockets
// unhashed so not a byte goes in or out, but memory, FDs and connection
// state stay intact for a later resume. This is the self-fencing an
// isolated owner applies when it can no longer prove it is the sole
// owner. Returns the number of processes suspended.
func (m *Migrator) SuspendService(name string) int {
	n := 0
	for _, p := range m.Node.Processes() {
		if p.Name != name || p.State != proc.ProcRunning {
			continue
		}
		n++
		m.Node.StopLoop(p)
		tcp, udp := p.Sockets()
		for _, sk := range tcp {
			if !sk.Unhashed() {
				sk.Unhash()
			}
		}
		for _, us := range udp {
			if !us.Unhashed() {
				us.Unhash()
			}
		}
	}
	return n
}

// ResumeService reverses SuspendService: sockets are rehashed,
// established connections restart their retransmit machinery, and the
// process loop is re-armed. Returns the number of processes resumed.
func (m *Migrator) ResumeService(name string) int {
	n := 0
	for _, p := range m.Node.Processes() {
		if p.Name != name || p.State != proc.ProcRunning {
			continue
		}
		n++
		tcp, udp := p.Sockets()
		for _, sk := range tcp {
			if sk.Unhashed() {
				if err := sk.Rehash(); err == nil && sk.State == netstack.TCPEstablished {
					sk.RestartRetransTimer()
				}
			}
		}
		for _, us := range udp {
			if us.Unhashed() {
				_ = us.Rehash()
			}
		}
		if p.LoopPeriod > 0 && p.Tick != nil {
			m.Node.StartLoop(p, p.LoopPeriod)
		}
	}
	return n
}

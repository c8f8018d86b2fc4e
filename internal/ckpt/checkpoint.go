package ckpt

import (
	"fmt"
	"sort"

	"dvemig/internal/netstack"
	"dvemig/internal/proc"
)

// Checkpoint takes a full (stop-and-copy) checkpoint of the process: all
// resident memory pages, VMA geometry, thread contexts, the open file
// table (metadata only — file contents live on every node), and socket
// snapshots. The caller must have made the process quiescent; for
// sockets that means they are unhashed or idle.
func Checkpoint(p *proc.Process) *Image {
	img := &Image{
		PID:        p.PID,
		Name:       p.Name,
		CPUDemand:  p.CPUDemand,
		LoopPeriod: p.LoopPeriod,
		Behavior: &Behavior{
			Tick:        p.Tick,
			SigHandlers: p.SigHandlers,
		},
	}
	for sig := range p.SigHandlers {
		img.HandledSignals = append(img.HandledSignals, sig)
	}
	sort.Slice(img.HandledSignals, func(i, j int) bool {
		return img.HandledSignals[i] < img.HandledSignals[j]
	})
	for _, th := range p.Threads {
		img.Threads = append(img.Threads, ThreadImage{TID: th.TID, Regs: th.Regs})
	}
	for _, v := range p.AS.VMAs() {
		img.VMAs = append(img.VMAs, VMARange{Start: v.Start, End: v.End, Perms: v.Perms})
		v.Entries(func(e proc.PTE) {
			var data []byte // a placeholder's stays nil
			if e.Frame != nil {
				data = make([]byte, proc.PageSize) // the frame, then the page's zero tail
				copy(data, e.Frame)
			}
			img.Pages = append(img.Pages, PageImage{VMAStart: v.Start, Index: e.Index, Data: data})
		})
	}
	img.FDs = checkpointFDs(p)
	return img
}

// checkpointFDs dumps the FD table. Sockets are snapshotted in place;
// the live-migration engine instead excludes them here and handles them
// through the collective socket migration path.
func checkpointFDs(p *proc.Process) []FDImage {
	var out []FDImage
	for _, fd := range p.FDs.FDs() {
		switch f := p.FDs.Get(fd).(type) {
		case *proc.RegularFile:
			out = append(out, FDImage{FD: fd, Kind: "file", Path: f.Path, Offset: f.Offset, Flags: f.Flags})
		case *proc.TCPFile:
			out = append(out, FDImage{FD: fd, Kind: "tcp", TCP: netstack.SnapshotTCP(f.Sock)})
		case *proc.UDPFile:
			out = append(out, FDImage{FD: fd, Kind: "udp", UDP: netstack.SnapshotUDP(f.Sock)})
		}
	}
	return out
}

// CheckpointFDsExcludingSockets dumps only the regular-file descriptors:
// the third phase of collective socket migration runs "BLCR's regular
// file descriptor table iteration, but excluding the already processed
// network connections" (§III-C).
func CheckpointFDsExcludingSockets(p *proc.Process) []FDImage {
	var out []FDImage
	for _, fd := range p.FDs.FDs() {
		if f, ok := p.FDs.Get(fd).(*proc.RegularFile); ok {
			out = append(out, FDImage{FD: fd, Kind: "file", Path: f.Path, Offset: f.Offset, Flags: f.Flags})
		}
	}
	return out
}

// SocketFDs lists descriptor/socket pairs in FD-table order.
func SocketFDs(p *proc.Process) (tcp map[int]*netstack.TCPSocket, udp map[int]*netstack.UDPSocket) {
	tcp = make(map[int]*netstack.TCPSocket)
	udp = make(map[int]*netstack.UDPSocket)
	for _, fd := range p.FDs.FDs() {
		switch f := p.FDs.Get(fd).(type) {
		case *proc.TCPFile:
			tcp[fd] = f.Sock
		case *proc.UDPFile:
			udp[fd] = f.Sock
		}
	}
	return tcp, udp
}

// Restore materializes the image as a new process on node n: rebuild the
// address space (regular BLCR restart), re-open files, restore sockets
// (rehash + retransmission timer restart), recreate threads with their
// registers, re-install signal handlers, and resume the real-time loop.
func Restore(n *proc.Node, img *Image) (*proc.Process, error) {
	// BLCR restores the original PID when possible.
	p := n.Arrive(img.Name, img.PID, proc.NewAddressSpace(), len(img.Threads))
	p.CPUDemand = img.CPUDemand
	for i, ti := range img.Threads {
		p.Threads[i].TID = ti.TID
		p.Threads[i].Regs = ti.Regs
	}
	for _, v := range img.VMAs {
		if _, err := p.AS.MmapFixed(v.Start, v.End, v.Perms); err != nil {
			return nil, fmt.Errorf("ckpt restore: %w", err)
		}
	}
	for _, pg := range img.Pages {
		if err := p.AS.Write(pg.VMAStart+pg.Index*proc.PageSize, pg.Data); err != nil {
			return nil, fmt.Errorf("ckpt restore page: %w", err)
		}
	}
	p.AS.ClearDirty()
	if err := RestoreFDs(n, p, img.FDs); err != nil {
		return nil, err
	}
	if img.Behavior != nil {
		p.Tick = img.Behavior.Tick
		if img.Behavior.SigHandlers != nil {
			p.SigHandlers = img.Behavior.SigHandlers
		}
	}
	if img.LoopPeriod > 0 && p.Tick != nil {
		n.StartLoop(p, img.LoopPeriod)
	}
	return p, nil
}

// RestoreFDs re-creates file descriptors from images on process p.
func RestoreFDs(n *proc.Node, p *proc.Process, fds []FDImage) error {
	for _, f := range fds {
		switch f.Kind {
		case "file":
			if err := p.FDs.InstallAt(f.FD, &proc.RegularFile{Path: f.Path, Offset: f.Offset, Flags: f.Flags}); err != nil {
				return err
			}
		case "tcp":
			sk, err := netstack.RestoreTCP(n.Stack, f.TCP)
			if err != nil {
				return fmt.Errorf("ckpt restore tcp fd %d: %w", f.FD, err)
			}
			if err := p.FDs.InstallAt(f.FD, &proc.TCPFile{Sock: sk}); err != nil {
				return err
			}
		case "udp":
			us, err := netstack.RestoreUDP(n.Stack, f.UDP)
			if err != nil {
				return fmt.Errorf("ckpt restore udp fd %d: %w", f.FD, err)
			}
			if err := p.FDs.InstallAt(f.FD, &proc.UDPFile{Sock: us}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("ckpt restore: unknown fd kind %q", f.Kind)
		}
	}
	return nil
}

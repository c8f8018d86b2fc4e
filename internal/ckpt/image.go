// Package ckpt is the checkpoint/restart library of the system — the
// analogue of Berkeley Lab Checkpoint/Restart (BLCR) that the paper
// extends. It provides full process checkpointing, restart, and the
// incremental address-space tracking (dirty pages plus VMA-list diffing)
// that the precopy phase of live migration is built on (§III-A, §V-A).
//
// Behavioural state (the Go closures standing in for program text) is
// carried by reference inside Image — in a real system the code lives in
// the executable, which the paper assumes is present on every node.
// Everything that would actually cross the wire (memory pages, VMA
// geometry, registers, FD metadata, socket state) has a binary encoding,
// and migration charges network time for exactly those bytes.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
	"dvemig/internal/wire"
)

// ThreadImage is the per-thread execution context transferred in the
// freeze phase: registers and identity (§III-A: "each thread then
// transfers registers, signal handlers and its process/thread ID").
type ThreadImage struct {
	TID  int
	Regs proc.Registers
}

// PageImage is one page of memory content.
type PageImage struct {
	VMAStart uint64
	Index    uint64
	Data     []byte
}

// VMARange describes region geometry for insert/resize records.
type VMARange struct {
	Start, End uint64
	Perms      string
}

// FDImage records one open file descriptor. Regular files carry path,
// offset and flags only (contents are on every node, §II-A); sockets
// carry full snapshots.
type FDImage struct {
	FD     int
	Kind   string // "file", "tcp", "udp"
	Path   string
	Offset int64
	Flags  int

	TCP *netstack.TCPSnapshot
	UDP *netstack.UDPSnapshot
}

// Image is a complete process checkpoint.
type Image struct {
	PID        int
	Name       string
	Threads    []ThreadImage
	VMAs       []VMARange
	Pages      []PageImage
	FDs        []FDImage
	CPUDemand  float64
	LoopPeriod simtime.Duration
	// HandledSignals lists signals with installed handlers; the handler
	// functions themselves ride in Behavior.
	HandledSignals []proc.Signal

	// Behavior carries the non-serializable program state by reference
	// (see package comment).
	Behavior *Behavior
}

// Behavior is the code-and-closures side of a process.
type Behavior struct {
	Tick        func(*proc.Process)
	SigHandlers map[proc.Signal]func(*proc.Process, *proc.Thread)
}

// --- binary encoding (size-faithful wire format) -------------------------

// appendSpan appends v behind its u32 length, and appendStr s.
func appendSpan(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendVMA(b []byte, v VMARange) []byte {
	b = binary.BigEndian.AppendUint64(b, v.Start)
	b = binary.BigEndian.AppendUint64(b, v.End)
	return appendStr(b, v.Perms)
}

// vmaSize is the length of appendVMA's record for v.
func vmaSize(v VMARange) int { return 8 + 8 + 4 + len(v.Perms) }

func readVMA(r *wire.Reader) VMARange {
	return VMARange{Start: r.U64(), End: r.U64(), Perms: string(r.Span())}
}

func appendThread(b []byte, t ThreadImage) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(t.TID))
	b = binary.BigEndian.AppendUint64(b, t.Regs.PC)
	b = binary.BigEndian.AppendUint64(b, t.Regs.SP)
	for _, g := range t.Regs.GPR {
		b = binary.BigEndian.AppendUint64(b, g)
	}
	return b
}

func readThread(r *wire.Reader) ThreadImage {
	var t ThreadImage
	t.TID = int(r.U32())
	t.Regs.PC = r.U64()
	t.Regs.SP = r.U64()
	for i := range t.Regs.GPR {
		t.Regs.GPR[i] = r.U64()
	}
	return t
}

func appendFD(b []byte, f FDImage) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(f.FD))
	b = appendStr(b, f.Kind)
	switch f.Kind {
	case "file":
		b = appendStr(b, f.Path)
		b = binary.BigEndian.AppendUint64(b, uint64(f.Offset))
		b = binary.BigEndian.AppendUint32(b, uint32(f.Flags))
	case "tcp":
		b = appendSpan(b, f.TCP.Encode())
	case "udp":
		b = appendSpan(b, f.UDP.Encode())
	}
	return b
}

func readFD(r *wire.Reader) (FDImage, error) {
	var f FDImage
	f.FD = int(r.U32())
	f.Kind = string(r.Span())
	switch f.Kind {
	case "file":
		f.Path = string(r.Span())
		f.Offset = int64(r.U64())
		f.Flags = int(r.U32())
	case "tcp":
		snap, err := netstack.DecodeTCPSnapshot(r.Span())
		if err != nil {
			return f, err
		}
		f.TCP = snap
	case "udp":
		snap, err := netstack.DecodeUDPSnapshot(r.Span())
		if err != nil {
			return f, err
		}
		f.UDP = snap
	default:
		if r.Err() == nil {
			return f, fmt.Errorf("ckpt: unknown fd kind %q", f.Kind)
		}
	}
	return f, r.Err()
}

// Encode serializes the image's transferable state.
func (img *Image) Encode() []byte { return img.AppendEncode(nil) }

// AppendEncode appends the image's encoding to dst and returns the
// extended slice: the final image is built in place in the migration's
// encode scratch, and the guardian checkpoint stream passes its own
// scratch, emptied, so neither grows a buffer from nothing per image.
func (img *Image) AppendEncode(dst []byte) []byte {
	b := binary.BigEndian.AppendUint32(dst, uint32(img.PID))
	b = appendStr(b, img.Name)
	b = binary.BigEndian.AppendUint64(b, uint64(img.CPUDemand*1e6))
	b = binary.BigEndian.AppendUint64(b, uint64(img.LoopPeriod))
	b = binary.BigEndian.AppendUint32(b, uint32(len(img.HandledSignals)))
	for _, s := range img.HandledSignals {
		b = binary.BigEndian.AppendUint32(b, uint32(s))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(img.Threads)))
	for _, t := range img.Threads {
		b = appendThread(b, t)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(img.VMAs)))
	for _, v := range img.VMAs {
		b = appendVMA(b, v)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(img.Pages)))
	for _, p := range img.Pages {
		b = binary.BigEndian.AppendUint64(b, p.VMAStart)
		b = binary.BigEndian.AppendUint64(b, p.Index)
		b = encodePage(b, p.Data, len(p.Data))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(img.FDs)))
	for _, f := range img.FDs {
		b = appendFD(b, f)
	}
	return b
}

// DecodeImage parses an encoded image. Behavior is nil in the result;
// the caller re-attaches it (it travels by reference in the simulation).
func DecodeImage(data []byte) (*Image, error) {
	r := wire.NewReader(data)
	img := &Image{}
	img.PID = int(r.U32())
	img.Name = string(r.Span())
	img.CPUDemand = float64(r.U64()) / 1e6
	img.LoopPeriod = simtime.Duration(r.U64())
	nh := int(r.U32())
	if r.Err() != nil || nh > 1<<16 {
		return nil, errors.New("ckpt: corrupt image header")
	}
	for i := 0; i < nh && r.Err() == nil; i++ {
		img.HandledSignals = append(img.HandledSignals, proc.Signal(r.U32()))
	}
	nt := int(r.U32())
	if r.Err() != nil || nt > 1<<16 {
		return nil, errors.New("ckpt: corrupt thread count")
	}
	for i := 0; i < nt && r.Err() == nil; i++ {
		img.Threads = append(img.Threads, readThread(&r))
	}
	nv := int(r.U32())
	if r.Err() != nil || nv > 1<<20 {
		return nil, errors.New("ckpt: corrupt vma count")
	}
	for i := 0; i < nv && r.Err() == nil; i++ {
		img.VMAs = append(img.VMAs, readVMA(&r))
	}
	np := int(r.U32())
	if r.Err() != nil || np > 1<<24 {
		return nil, errors.New("ckpt: corrupt page count")
	}
	for i := 0; i < np && r.Err() == nil; i++ {
		img.Pages = append(img.Pages, PageImage{VMAStart: r.U64(), Index: r.U64(), Data: decodePageData(&r)})
	}
	nf := int(r.U32())
	if r.Err() != nil || nf > 1<<20 {
		return nil, errors.New("ckpt: corrupt fd count")
	}
	for i := 0; i < nf; i++ {
		f, err := readFD(&r)
		if err != nil {
			return nil, err
		}
		img.FDs = append(img.FDs, f)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return img, nil
}

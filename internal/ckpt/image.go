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

type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *wbuf) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wbuf) str(s string) { w.bytes([]byte(s)) }
func (w *wbuf) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.b = append(w.b, v...)
}

type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = errors.New("ckpt: truncated image")
	}
}
func (r *rbuf) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}
func (r *rbuf) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}
func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}
func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}
func (r *rbuf) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return v
}
func (r *rbuf) str() string { return string(r.bytes()) }

func encodeThread(w *wbuf, t ThreadImage) {
	w.u32(uint32(t.TID))
	w.u64(t.Regs.PC)
	w.u64(t.Regs.SP)
	for _, g := range t.Regs.GPR {
		w.u64(g)
	}
}

func decodeThread(r *rbuf) ThreadImage {
	var t ThreadImage
	t.TID = int(r.u32())
	t.Regs.PC = r.u64()
	t.Regs.SP = r.u64()
	for i := range t.Regs.GPR {
		t.Regs.GPR[i] = r.u64()
	}
	return t
}

func encodeFD(w *wbuf, f FDImage) {
	w.u32(uint32(f.FD))
	w.str(f.Kind)
	switch f.Kind {
	case "file":
		w.str(f.Path)
		w.u64(uint64(f.Offset))
		w.u32(uint32(f.Flags))
	case "tcp":
		w.bytes(f.TCP.Encode())
	case "udp":
		w.bytes(f.UDP.Encode())
	}
}

func decodeFD(r *rbuf) (FDImage, error) {
	var f FDImage
	f.FD = int(r.u32())
	f.Kind = r.str()
	switch f.Kind {
	case "file":
		f.Path = r.str()
		f.Offset = int64(r.u64())
		f.Flags = int(r.u32())
	case "tcp":
		snap, err := netstack.DecodeTCPSnapshot(r.bytes())
		if err != nil {
			return f, err
		}
		f.TCP = snap
	case "udp":
		snap, err := netstack.DecodeUDPSnapshot(r.bytes())
		if err != nil {
			return f, err
		}
		f.UDP = snap
	default:
		if r.err == nil {
			return f, fmt.Errorf("ckpt: unknown fd kind %q", f.Kind)
		}
	}
	return f, r.err
}

// Encode serializes the image's transferable state.
func (img *Image) Encode() []byte { return img.AppendEncode(nil) }

// AppendEncode appends the image's encoding to dst and returns the
// extended slice: the final image is built in place in the migration's
// encode scratch, and the guardian checkpoint stream passes its own
// scratch, emptied, so neither grows a buffer from nothing per image.
func (img *Image) AppendEncode(dst []byte) []byte {
	w := wbuf{b: dst}
	w.u32(uint32(img.PID))
	w.str(img.Name)
	w.u64(uint64(img.CPUDemand * 1e6))
	w.u64(uint64(img.LoopPeriod))
	w.u32(uint32(len(img.HandledSignals)))
	for _, s := range img.HandledSignals {
		w.u32(uint32(s))
	}
	w.u32(uint32(len(img.Threads)))
	for _, t := range img.Threads {
		encodeThread(&w, t)
	}
	w.u32(uint32(len(img.VMAs)))
	for _, v := range img.VMAs {
		w.u64(v.Start)
		w.u64(v.End)
		w.str(v.Perms)
	}
	w.u32(uint32(len(img.Pages)))
	for _, p := range img.Pages {
		w.u64(p.VMAStart)
		w.u64(p.Index)
		encodePage(&w, p.Data, len(p.Data))
	}
	w.u32(uint32(len(img.FDs)))
	for _, f := range img.FDs {
		encodeFD(&w, f)
	}
	return w.b
}

// DecodeImage parses an encoded image. Behavior is nil in the result;
// the caller re-attaches it (it travels by reference in the simulation).
func DecodeImage(data []byte) (*Image, error) {
	r := &rbuf{b: data}
	img := &Image{}
	img.PID = int(r.u32())
	img.Name = r.str()
	img.CPUDemand = float64(r.u64()) / 1e6
	img.LoopPeriod = simtime.Duration(r.u64())
	nh := int(r.u32())
	if r.err != nil || nh > 1<<16 {
		return nil, errors.New("ckpt: corrupt image header")
	}
	for i := 0; i < nh; i++ {
		img.HandledSignals = append(img.HandledSignals, proc.Signal(r.u32()))
	}
	nt := int(r.u32())
	if r.err != nil || nt > 1<<16 {
		return nil, errors.New("ckpt: corrupt thread count")
	}
	for i := 0; i < nt; i++ {
		img.Threads = append(img.Threads, decodeThread(r))
	}
	nv := int(r.u32())
	if r.err != nil || nv > 1<<20 {
		return nil, errors.New("ckpt: corrupt vma count")
	}
	for i := 0; i < nv; i++ {
		img.VMAs = append(img.VMAs, VMARange{Start: r.u64(), End: r.u64(), Perms: r.str()})
	}
	np := int(r.u32())
	if r.err != nil || np > 1<<24 {
		return nil, errors.New("ckpt: corrupt page count")
	}
	for i := 0; i < np; i++ {
		img.Pages = append(img.Pages, PageImage{VMAStart: r.u64(), Index: r.u64(), Data: decodePageData(r)})
	}
	nf := int(r.u32())
	if r.err != nil || nf > 1<<20 {
		return nil, errors.New("ckpt: corrupt fd count")
	}
	for i := 0; i < nf; i++ {
		f, err := decodeFD(r)
		if err != nil {
			return nil, err
		}
		img.FDs = append(img.FDs, f)
	}
	if r.err != nil {
		return nil, r.err
	}
	return img, nil
}

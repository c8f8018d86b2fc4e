package migration

import (
	"encoding/binary"

	"dvemig/internal/ckpt"
	"dvemig/internal/simtime"
	"dvemig/internal/wire"
)

// Migration strategy wire tags (migrateReq.Mode).
const (
	modePrecopy byte = iota
	modePostcopy
	modeHybrid
)

// pageReq is a destination→source demand pull: the pages the resumed
// process faulted on. Epoch is the destination's view of the service
// epoch from the original MIGRATE_REQ; the source fences requests whose
// epoch is no longer current (the puller's ownership was superseded).
type pageReq struct {
	ID     uint32 // correlates the eventual pageResp, 1-based
	Epoch  uint64
	Coords []ckpt.PageCoord
}

func (m pageReq) encode() []byte {
	b := make([]byte, 16, 16+16*len(m.Coords))
	binary.BigEndian.PutUint32(b[0:], m.ID)
	binary.BigEndian.PutUint64(b[4:], m.Epoch)
	binary.BigEndian.PutUint32(b[12:], uint32(len(m.Coords)))
	for _, c := range m.Coords {
		var e [16]byte
		binary.BigEndian.PutUint64(e[0:], c.VMAStart)
		binary.BigEndian.PutUint64(e[8:], c.Index)
		b = append(b, e[:]...)
	}
	return b
}

func decodePageReq(b []byte) (pageReq, error) {
	r := wire.NewReader(b)
	m := pageReq{ID: r.U32(), Epoch: r.U64()}
	n := int(r.U32())
	if n > len(r.Rest())/16 {
		r.Fail(wire.ErrTruncated)
	}
	if r.Err() != nil {
		return pageReq{}, r.Err()
	}
	m.Coords = make([]ckpt.PageCoord, 0, n)
	for i := 0; i < n; i++ {
		m.Coords = append(m.Coords, ckpt.PageCoord{VMAStart: r.U64(), Index: r.U64()})
	}
	return m, nil
}

// pageResp carries page content source→destination. ID echoes the
// demand pageReq it answers, or 0 for an unsolicited prefetch push. A
// demand reply may carry fewer pages than were asked for when some of
// the coords were already shipped (the content is then in flight ahead
// of this reply on the same ordered stream).
type pageResp struct {
	ID    uint32
	Pages []respPage
}

// respPage is one page of content keyed by its coordinate. Len, when
// larger than len(Data), is the page's length: Data is then a lent
// frame, the page up to the last line a store reached, and the rest of
// the page is zero. A decoded page leaves it zero.
type respPage struct {
	Coord ckpt.PageCoord
	Data  []byte
	Len   int
}

// size returns the page's length on the wire.
func (p respPage) size() int { return max(p.Len, len(p.Data)) }

// encodeInto serializes into buf (reusing its capacity, overwriting its
// content). Page data is copied here, a frame's zero tail appended after
// it, so the pages may be lent ones.
func (m pageResp) encodeInto(buf []byte) []byte {
	sz := 8
	for _, p := range m.Pages {
		sz += 20 + p.size()
	}
	b := buf[:0]
	if cap(b) < sz {
		b = make([]byte, 0, sz)
	}
	b = b[:8]
	binary.BigEndian.PutUint32(b[0:], m.ID)
	binary.BigEndian.PutUint32(b[4:], uint32(len(m.Pages)))
	for _, p := range m.Pages {
		var e [20]byte
		binary.BigEndian.PutUint64(e[0:], p.Coord.VMAStart)
		binary.BigEndian.PutUint64(e[8:], p.Coord.Index)
		binary.BigEndian.PutUint32(e[16:], uint32(p.size()))
		b = append(b, e[:]...)
		b = append(b, p.Data...)
		b = append(b, make([]byte, p.size()-len(p.Data))...)
	}
	return b
}

func decodePageResp(b []byte) (pageResp, error) {
	r := wire.NewReader(b)
	m := pageResp{ID: r.U32()}
	n := int(r.U32())
	if n > len(r.Rest())/20 {
		r.Fail(wire.ErrTruncated)
	}
	if r.Err() != nil {
		return pageResp{}, r.Err()
	}
	m.Pages = make([]respPage, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		c := ckpt.PageCoord{VMAStart: r.U64(), Index: r.U64()}
		m.Pages = append(m.Pages, respPage{Coord: c, Data: r.Span()})
	}
	if r.Err() != nil {
		return pageResp{}, r.Err()
	}
	return m, nil
}

// pullsDone reports the end of the degraded window back to the source:
// the destination filled its last hole at LastFillAt, after Demand
// demand-pulled pages and Prefetched prefetch-pushed ones, stalling the
// process for StallNs of virtual time in total.
type pullsDone struct {
	LastFillAt simtime.Time
	Demand     uint32
	Prefetched uint32
	StallNs    uint64
}

func (m pullsDone) encode() []byte {
	b := make([]byte, 24)
	binary.BigEndian.PutUint64(b[0:], uint64(m.LastFillAt))
	binary.BigEndian.PutUint32(b[8:], m.Demand)
	binary.BigEndian.PutUint32(b[12:], m.Prefetched)
	binary.BigEndian.PutUint64(b[16:], m.StallNs)
	return b
}

func decodePullsDone(b []byte) (pullsDone, error) {
	r := wire.NewReader(b)
	m := pullsDone{LastFillAt: simtime.Time(r.U64()), Demand: r.U32(), Prefetched: r.U32(), StallNs: r.U64()}
	return m, r.Err()
}

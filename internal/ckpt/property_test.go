package ckpt

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dvemig/internal/proc"
)

// TestMemDeltaEncodeDecodeProperty: any generated delta survives the wire
// format bit for bit.
func TestMemDeltaEncodeDecodeProperty(t *testing.T) {
	f := func(round uint8, starts []uint16, pageIdx []uint8, data []byte) bool {
		d := &MemDelta{Round: int(round)}
		for i, st := range starts {
			base := uint64(st)*proc.PageSize + 0x10000
			switch i % 3 {
			case 0:
				d.NewVMAs = append(d.NewVMAs, VMARange{Start: base, End: base + proc.PageSize, Perms: "rw-"})
			case 1:
				d.Removed = append(d.Removed, base)
			case 2:
				d.Resized = append(d.Resized, VMARange{Start: base, End: base + 2*proc.PageSize, Perms: "r--"})
			}
		}
		for i, idx := range pageIdx {
			pg := data
			if len(pg) > proc.PageSize {
				pg = pg[:proc.PageSize]
			}
			d.Pages = append(d.Pages, PageImage{
				VMAStart: uint64(i) * 0x100000, Index: uint64(idx),
				Data: append([]byte(nil), pg...),
			})
		}
		got, err := DecodeMemDelta(d.Encode())
		if err != nil {
			return false
		}
		// Normalize nil/empty page data.
		for i := range d.Pages {
			if len(d.Pages[i].Data) == 0 {
				d.Pages[i].Data = nil
			}
		}
		for i := range got.Pages {
			if len(got.Pages[i].Data) == 0 {
				got.Pages[i].Data = nil
			}
		}
		return reflect.DeepEqual(d, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPrecopyRandomWorkloadConverges: under an arbitrary interleaving of
// writes, mmaps, munmaps and resizes between rounds, applying every delta
// to a shadow always reproduces the source exactly.
func TestPrecopyRandomWorkloadConverges(t *testing.T) {
	for seed := int64(1); seed <= precopySeeds; seed++ {
		shadow := proc.NewAddressSpace()
		as := randomPrecopy(seed, func(r int, d *MemDelta) {
			if err := ApplyDelta(shadow, d); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, r, err)
			}
		})
		assertSpacesEqual(t, seed, as, shadow)
	}
}

// precopySeeds is how many seeds of randomPrecopy the property tests run.
const precopySeeds = 10

// randomPrecopy runs seed's random workload: a few regions mapped, then
// 3 to 7 precopy rounds with random writes, mmaps, munmaps and shrinks
// between them, and a final freeze round. round sees each of the
// tracker's deltas in turn (lent: valid until it returns); the source
// space is returned.
func randomPrecopy(seed int64, round func(r int, d *MemDelta)) *proc.AddressSpace {
	rnd := rand.New(rand.NewSource(seed))
	as := proc.NewAddressSpace()
	var regions []uint64
	// Seed with a few regions.
	for i := 0; i < 3; i++ {
		v := as.Mmap(uint64(1+rnd.Intn(8))*proc.PageSize, "rw-")
		regions = append(regions, v.Start)
	}
	tr := NewTracker()
	rounds := 3 + rnd.Intn(5)
	for r := 0; r < rounds; r++ {
		round(r, tr.Delta(as))
		// Random mutations between rounds.
		for op := 0; op < 5; op++ {
			switch rnd.Intn(4) {
			case 0: // write
				if len(regions) > 0 {
					start := regions[rnd.Intn(len(regions))]
					if v := findRegion(as, start); v != nil {
						off := uint64(rnd.Intn(int(v.Len())))
						n := 1 + rnd.Intn(200)
						buf := make([]byte, n)
						rnd.Read(buf)
						if off+uint64(n) > v.Len() {
							off = 0
						}
						_ = as.Write(v.Start+off, buf)
					}
				}
			case 1: // mmap
				v := as.Mmap(uint64(1+rnd.Intn(4))*proc.PageSize, "rw-")
				regions = append(regions, v.Start)
			case 2: // munmap
				if len(regions) > 1 {
					i := rnd.Intn(len(regions))
					if as.Munmap(regions[i]) == nil {
						regions = append(regions[:i], regions[i+1:]...)
					}
				}
			case 3: // resize (shrink only: growth may collide)
				if len(regions) > 0 {
					start := regions[rnd.Intn(len(regions))]
					if v := findRegion(as, start); v != nil && v.Len() > proc.PageSize {
						_ = as.Resize(start, v.Len()-proc.PageSize)
					}
				}
			}
		}
	}
	// Final freeze round.
	round(rounds, tr.Delta(as))
	return as
}

func assertSpacesEqual(t *testing.T, seed int64, a, b *proc.AddressSpace) {
	t.Helper()
	av, bv := a.VMAs(), b.VMAs()
	if len(av) != len(bv) {
		t.Fatalf("seed %d: vma count %d vs %d", seed, len(av), len(bv))
	}
	for i := range av {
		if av[i].Start != bv[i].Start || av[i].End != bv[i].End {
			t.Fatalf("seed %d: geometry mismatch at %d", seed, i)
		}
		x, _ := a.Read(av[i].Start, int(av[i].Len()))
		y, _ := b.Read(bv[i].Start, int(bv[i].Len()))
		if !bytes.Equal(x, y) {
			t.Fatalf("seed %d: content mismatch in region %#x", seed, av[i].Start)
		}
	}
}

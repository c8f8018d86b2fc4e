package migration

import (
	"hash/fnv"
	"testing"
)

// TestFinalImageWireGolden pins the final image's encoding in both
// kinds to the bytes the two codecs it replaced produced for the same
// scripted content (FNV-64a of freezeMsg.encode and postImage.encode,
// recorded at e5dadc0): merging the codecs must not move a byte on the
// wire, including the post image's empty third part — which a peer may
// no longer fill.
func TestFinalImageWireGolden(t *testing.T) {
	fi := finalImage{FreezeStart: 0x0102030405060708, Image: []byte("image"), SockDelta: []byte("sock")}
	for _, tc := range []struct {
		kind byte
		mem  string
		size int
		sum  uint64
	}{
		{chunkKindFreeze, "mem-delta", 38, 0xa91cdd3c517d4a6e},
		{chunkKindPostImage, "page-dir", 41, 0x44ada16bbed5857a},
	} {
		fi.Mem = []byte(tc.mem)
		b := fi.encode(tc.kind)
		h := fnv.New64a()
		h.Write(b)
		if len(b) != tc.size || h.Sum64() != tc.sum {
			t.Errorf("kind %d: %d bytes, FNV-64a %#x; want %d bytes, %#x", tc.kind, len(b), h.Sum64(), tc.size, tc.sum)
		}
		back, err := decodeFinalImage(tc.kind, b)
		if err != nil || string(back.Mem) != tc.mem || string(back.SockDelta) != "sock" {
			t.Errorf("kind %d: decodes to %+v, %v", tc.kind, back, err)
		}
	}
	head := fi.encode(chunkKindPostImage)[:8+4+len("image")+4+len("page-dir")]
	filled := append(head[:len(head):len(head)], 0, 0, 0, 1, 0xAA, 0, 0, 0, 4, 's', 'o', 'c', 'k')
	if _, err := decodeFinalImage(chunkKindPostImage, filled); err == nil {
		t.Error("a post image with a non-empty resident-page delta was accepted")
	}
}

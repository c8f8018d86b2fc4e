package xlat

import (
	"encoding/hex"
	"testing"

	"dvemig/internal/netsim"
)

// The translation-request frame, pinned in bytes: each row encodes one
// request from fixed values, every field distinct, and must equal the
// hex recorded at commit aa9b64c, then decode back to the same value.
func TestFrameGolden(t *testing.T) {
	rule := Rule{Proto: netsim.ProtoTCP, OldAddr: 0x0a000001, NewAddr: 0x0a000003,
		LocalPort: 3306, RemotePort: 40000, Epoch: 0x0102030405060708}
	for _, row := range []struct {
		name string
		op   byte
		id   uint32
		want string
	}{
		{"add", opAdd, 0x0a0b0c0d, "010a0b0c0d060a0000010a0000030cea9c400102030405060708"},
		{"remove", opRemove, 7, "0200000007060a0000010a0000030cea9c400102030405060708"},
	} {
		enc := encodeRequest(row.op, row.id, rule)
		if got := hex.EncodeToString(enc); got != row.want {
			t.Errorf("%s: encoding moved\n got %s\nwant %s", row.name, got, row.want)
		}
		op, id, r, err := decodeRequest(enc)
		if err != nil || op != row.op || id != row.id || r != rule {
			t.Errorf("%s: decoded (%d, %d, %+v, %v), want (%d, %d, %+v)", row.name, op, id, r, err, row.op, row.id, rule)
		}
	}
}

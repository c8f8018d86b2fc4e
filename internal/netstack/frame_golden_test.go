package netstack

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"dvemig/internal/netsim"
)

// The socket snapshot wire, pinned in bytes: each row encodes one
// snapshot from fixed values, every field distinct, and must equal the
// hex recorded at commit aa9b64c, then decode back to the same value.
// Trace hashes fold in packet lengths, not payload bytes, so a field
// moved inside a section would change no other golden.
func TestFrameGolden(t *testing.T) {
	seg := func(seq uint32, payload string) *netsim.Packet {
		p := &netsim.Packet{SrcIP: 0x0a000002, DstIP: 0x0a000001, Proto: netsim.ProtoTCP, TTL: 64,
			SrcPort: 80, DstPort: 40000, Seq: seq, Ack: 0x0b0b0b0b, Flags: 0x18, Window: 4096,
			TSVal: 0x0c0c0c0c, TSEcr: 0x0d0d0d0d, Payload: []byte(payload)}
		p.FixChecksum()
		return p
	}
	tcp := &TCPSnapshot{
		LocalIP: 0x0a000002, RemoteIP: 0x0a000001, OrigLocalIP: 0x0a000003,
		LocalPort: 80, RemotePort: 40000, State: TCPEstablished,
		ISS: 0x01010101, SndUna: 0x01010111, SndNxt: 0x01010121, IRS: 0x02020202, RcvNxt: 0x02020212,
		Cwnd: 10, Ssthresh: 64, SndWnd: 65535, RcvBufMax: 1 << 17,
		SRTTms: 12, RTTVarms: 3, RTOms: 240, TSRecent: 0x03030303, LastTxJiffies: 0x04040404,
		SrcJiffies: 0x05050505, MSS: 1460, SndBuf: []byte("unsent"),
		WriteQueue:   appendQueue(nil, []*netsim.Packet{seg(0x01010111, "in flight")}),
		ReceiveQueue: appendQueue(nil, []*netsim.Packet{seg(0x02020202, "ready")}),
		BytesIn:      0x0606060606060606, BytesOut: 0x0707070707070707,
	}
	udp := &UDPSnapshot{
		LocalIP: 0x0a000002, LocalPort: 27960, SrcJiffies: 0x05050505,
		Queue: []Datagram{
			{SrcIP: 0x0a000001, SrcPort: 40000, TSVal: 0x0c0c0c0c, Payload: []byte("one")},
			{SrcIP: 0x0a000004, SrcPort: 40001, TSVal: 0x0c0c0c0d, Payload: []byte("two!")},
		},
		BytesIn: 0x0606060606060606, BytesOut: 0x0707070707070707,
		PacketsIn: 0x0808080808080808, PacketsOut: 0x0909090909090909,
	}
	for _, row := range []struct {
		name   string
		enc    []byte
		want   string
		decode func([]byte) (any, error)
		value  any
	}{
		{"tcp", tcp.Encode(), "0000000c000a0000020a0000010a00000300509c4004" +
			strings.Repeat("00", 3055) +
			"010000005a01010101010101110101012102020202020202120000000a000000" +
			"400000ffff000200000000000c00000003000000f00303030304040404050505" +
			"05000005b40606060606060606070707070707070700000006756e73656e7402" +
			"00000105000000010000003d0a0000020a000001064000509c40010101110b0b" +
			"0b0b1810000c0c0c0c0d0d0d0d151b0000000000000000000000000000000000" +
			"696e20666c69676874" +
			strings.Repeat("00", 192) +
			"030000010100000001000000390a0000020a000001064000509c40020202020b" +
			"0b0b0b1810000c0c0c0c0d0d0d0d980500000000000000000000000000000000" +
			"007265616479" +
			strings.Repeat("00", 192) +
			"040000000400000000",
			func(b []byte) (any, error) { return DecodeTCPSnapshot(b) }, tcp},
		{"udp", udp.Encode(), "0a0000026d380505050506060606060606060707070707070707080808080808" +
			"08080909090909090909000000020a0000019c400c0c0c0c000000036f6e65" +
			strings.Repeat("00", 192) +
			"0a0000049c410c0c0c0d0000000474776f21" +
			strings.Repeat("00", 1216),
			func(b []byte) (any, error) { return DecodeUDPSnapshot(b) }, udp},
	} {
		if got := hex.EncodeToString(row.enc); got != row.want {
			t.Errorf("%s: encoding moved\n got %s\nwant %s", row.name, got, row.want)
		}
		got, err := row.decode(row.enc)
		if err != nil {
			t.Errorf("%s: decode: %v", row.name, err)
		} else if !reflect.DeepEqual(got, row.value) {
			t.Errorf("%s: decoded %+v, want %+v", row.name, got, row.value)
		}
	}
}

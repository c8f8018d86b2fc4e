package ctlplane

import (
	"encoding/hex"
	"reflect"
	"testing"
	"time"
)

// The control-plane frames, pinned in bytes: each row encodes one frame
// from fixed values, every field distinct, and must equal the hex
// recorded at commit aa9b64c, then decode back to the same value. Trace
// hashes fold in packet lengths, not payload bytes, so a field swapped
// inside a frame would change no other golden.
func TestFrameGolden(t *testing.T) {
	obj := &Object{
		Spec: Spec{ID: 0x0101010101010101, PID: 4242, Name: "zone-3", Source: 0x0a000001, Dest: 0x0a000002,
			Strategy: "hybrid", Epoch: 7, Deadline: 30 * time.Second, MaxRetries: -1},
		Status: Status{State: Running, Attempt: 2, Retries: 1, Cause: []string{"admitted", "aborted: peer reset"},
			CancelRequested: true, SubmitAt: 1500 * time.Millisecond, DoneAt: 0x0202020202},
	}
	run := runMsg{CtlEpoch: 3, ObjID: 0x0101010101010101, Attempt: 2, PID: 4242, Dest: 0x0a000002,
		SvcEpoch: 7, Strategy: "postcopy", Name: "zone-3"}
	cancel := cancelMsg{CtlEpoch: 3, ObjID: 0x0101010101010101, Attempt: 2, Reason: "deadline"}
	event := eventMsg{CtlEpoch: 3, ObjID: 0x0101010101010101, Attempt: 2, Kind: evAborted, SvcEpoch: 8,
		Detail: "peer reset"}
	hello := helloMsg{CtlEpoch: 3, Seq: 0x0303030303}
	for _, row := range []struct {
		name   string
		enc    []byte
		want   string
		decode func([]byte) (any, error)
		value  any
	}{
		{"object", AppendObject(nil, obj), "010101010101010101000010920a0000010a0000020000000000000007000000" +
			"06fc23ac00ffffffff020000000200000001010000000059682f000000000202" +
			"0202020668796272696400067a6f6e652d330002000861646d69747465640013" +
			"61626f727465643a2070656572207265736574",
			func(b []byte) (any, error) { return DecodeObject(b) }, obj},
		{"run", run.appendTo(nil), "010000000000000003010101010101010100000002000010920a000002000000" +
			"000000000708706f7374636f70797a6f6e652d33",
			func(b []byte) (any, error) { return decodeRunMsg(b) }, run},
		{"cancel", cancel.appendTo(nil), "020000000000000003010101010101010100000002646561646c696e65",
			func(b []byte) (any, error) { return decodeCancelMsg(b) }, cancel},
		{"event", event.appendTo(nil), "0300000000000000030101010101010101000000020400000000000000087065" +
			"6572207265736574",
			func(b []byte) (any, error) { return decodeEventMsg(b) }, event},
		{"hello", hello.appendTo(nil), "0400000000000000030000000303030303",
			func(b []byte) (any, error) { return decodeHelloMsg(b) }, hello},
		{"replicate", appendReplicate(nil, 3, obj), "050000000000000003010101010101010101000010920a0000010a0000020000" +
			"00000000000700000006fc23ac00ffffffff0200000002000000010100000000" +
			"59682f0000000002020202020668796272696400067a6f6e652d330002000861" +
			"646d6974746564001361626f727465643a2070656572207265736574",
			func(b []byte) (any, error) {
				o := &Object{}
				ep, err := decodeReplicate(o, b, nil)
				if ep != 3 {
					t.Errorf("replicate: controller epoch %d, want 3", ep)
				}
				return o, err
			}, obj},
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

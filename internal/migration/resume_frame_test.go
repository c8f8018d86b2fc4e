package migration

import (
	"errors"
	"testing"
	"time"

	"dvemig/internal/netstack"
	"dvemig/internal/proc"
	"dvemig/internal/simtime"
)

// TestWrongResumeFrameIsRefused: which frame ends the commit window is a
// column of the strategy row. A destination that answers the final
// image with the other one — RESTORE_DONE to a source whose row pulls,
// RESUMED to one whose row does not — is refused by the table with a
// typed cause naming the frame and the state, and the source rolls back:
// the process thaws and keeps running where it was.
//
// The RESTORE_DONE cases are the regression: the (state × type) table
// used to accept it in the committed state whatever the strategy, so a
// post-copy source dismantled its process (exited, detached, no pull
// server) while the destination resumed with every page a hole.
func TestWrongResumeFrameIsRefused(t *testing.T) {
	for _, tc := range []struct {
		strat string
		wrong MsgType
	}{
		{"precopy", MsgResumed},
		{"postcopy", MsgRestoreDone},
		{"hybrid", MsgRestoreDone},
	} {
		t.Run(tc.strat, func(t *testing.T) {
			c := proc.NewCluster(simtime.NewScheduler(), 2)
			cfg := DefaultConfig()
			var err error
			if cfg.Mig, err = StrategyByName(tc.strat); err != nil {
				t.Fatal(err)
			}
			cfg.EnableCapture = false
			m, err := NewMigrator(c.Nodes[0], cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := c.Nodes[0].Spawn("wrong_frame_target", 1)
			heap := p.AS.Mmap(8*proc.PageSize, "rw-")
			for i := uint64(0); i < 8; i++ {
				p.AS.Write(heap.Start+i*proc.PageSize, []byte{byte(i + 1)})
			}

			// The impersonated destination acks the request, swallows the
			// rounds, and answers the complete final image with the frame
			// the row has no place for.
			lst := netstack.NewTCPSocket(c.Nodes[1].Stack)
			if err := lst.Listen(c.Nodes[1].LocalIP, MigdPort); err != nil {
				t.Fatal(err)
			}
			var sink chunkSink
			answered := false
			lst.OnAccept = func(ch *netstack.TCPSocket) {
				conn := newConn(ch, nil, nil)
				conn.funcs().onMsg = func(mt MsgType, payload []byte) {
					switch mt {
					case MsgMigrateReq:
						conn.Send(MsgMigrateAck, nil)
					case MsgChunk, MsgChunkEnd:
						if kind, _, done := sink.feed(t, mt, payload); done && kind != chunkKindMemDelta {
							answered = true
							conn.Send(tc.wrong, restoreDone{ResumeAt: c.Sched.Now()}.encode())
						}
					}
				}
			}

			var got *Metrics
			var gotErr error
			done := false
			m.Migrate(p, c.Nodes[1].LocalIP, func(mm *Metrics, err error) {
				got, gotErr, done = mm, err, true
			})
			c.Sched.RunFor(30 * time.Second)
			if !answered || !done {
				t.Fatalf("final image answered: %v, migration ended: %v", answered, done)
			}
			var pe *protocolError
			if !errors.As(gotErr, &pe) || pe.t != tc.wrong || pe.state != "after the final image" {
				t.Fatalf("migration ended with %v, want the violation %s after the final image", gotErr, tc.wrong)
			}
			if got == nil || !got.Aborted {
				t.Fatalf("metrics not flagged aborted: %+v", got)
			}
			if p.State != proc.ProcRunning || findProcess(c.Nodes[0], "wrong_frame_target") != p {
				t.Fatalf("process state %v, on the source: %v — it must thaw and stay",
					p.State, findProcess(c.Nodes[0], "wrong_frame_target") == p)
			}
			if m.Migrating(p.PID) || len(m.Completed) != 0 || len(m.Aborted) != 1 {
				t.Fatalf("migrating %v, %d completed, %d aborted; want one abort on file",
					m.Migrating(p.PID), len(m.Completed), len(m.Aborted))
			}
		})
	}
}

package eval

import (
	"fmt"

	"dvemig/internal/capture"
	"dvemig/internal/netsim"
	"dvemig/internal/netstack"
	"dvemig/internal/simtime"
)

// DispatchResult reports one run of the dispatch comparison: moving a UDP
// service port between nodes under the paper's broadcast router with
// packet capture, versus the NAT dispatcher baseline [8]/[11] that must
// update its mapping.
type DispatchResult struct {
	Mode      string
	Sent      uint64
	Delivered uint64
	Lost      int
}

// DispatchConfig tunes the comparison.
type DispatchConfig struct {
	// Rate is the client datagram rate (packets per second).
	Rate int
	// Duration of the whole run; the move happens at the midpoint.
	Duration simtime.Duration
}

// DefaultDispatchConfig runs a 1 kHz client for 2 s.
func DefaultDispatchConfig() DispatchConfig {
	return DispatchConfig{
		Rate:     1000,
		Duration: 2 * 1e9,
	}
}

// freezeWindow is how long the socket is disabled during the move;
// natUpdateDelay is the router reconfiguration latency of the baseline.
const (
	freezeWindow   simtime.Duration = 2 * 1e6
	natUpdateDelay simtime.Duration = 10 * 1e6
)

// RunDispatchComparison executes both variants and returns their results.
func RunDispatchComparison(cfg DispatchConfig) (broadcast, nat *DispatchResult, err error) {
	if broadcast, err = runDispatch(cfg, true); err != nil {
		return nil, nil, err
	}
	if nat, err = runDispatch(cfg, false); err != nil {
		return nil, nil, err
	}
	return broadcast, nat, nil
}

func runDispatch(cfg DispatchConfig, useBroadcast bool) (*DispatchResult, error) {
	sched := simtime.NewScheduler()
	clusterIP := netsim.MakeAddr(203, 0, 113, 10)
	cliAddr := netsim.MakeAddr(198, 51, 100, 1)

	var n1pub, n2pub, cliNIC *netsim.NIC
	var natR *netsim.NATRouter
	if useBroadcast {
		r := netsim.NewBroadcastRouter(sched, clusterIP)
		n1pub = r.AttachServer("n1.pub", netsim.GigabitEthernet)
		n2pub = r.AttachServer("n2.pub", netsim.GigabitEthernet)
		cliNIC = r.AttachExternal("cli", cliAddr, netsim.GigabitEthernet)
	} else {
		natR = netsim.NewNATRouter(sched, clusterIP, natUpdateDelay)
		n1pub = natR.AttachServer("n1.pub", netsim.GigabitEthernet)
		n2pub = natR.AttachServer("n2.pub", netsim.GigabitEthernet)
		cliNIC = natR.AttachExternal("cli", cliAddr, netsim.GigabitEthernet)
	}
	st1 := netstack.NewStack(sched, "n1", 111)
	st1.AttachNIC(n1pub, clusterIP)
	st1.AddRoute(0, 0, n1pub, clusterIP)
	st2 := netstack.NewStack(sched, "n2", 99999)
	st2.AttachNIC(n2pub, clusterIP)
	st2.AddRoute(0, 0, n2pub, clusterIP)
	cliStack := netstack.NewStack(sched, "cli", 7)
	cliStack.AttachNIC(cliNIC, cliAddr)
	cliStack.AddRoute(0, 0, cliNIC, cliAddr)

	const port = 5000
	srv := netstack.NewUDPSocket(st1)
	if err := srv.Bind(clusterIP, port); err != nil {
		return nil, err
	}
	if natR != nil {
		natR.MapPort(netsim.ProtoUDP, port, n1pub)
	}

	cli := netstack.NewUDPSocket(cliStack)
	cli.BindEphemeral(cliAddr)
	var sent uint64
	tk := simtime.NewTicker(sched, simtime.Duration(1e9)/simtime.Duration(cfg.Rate), "cli", func() {
		sent++
		_ = cli.SendTo(clusterIP, port, []byte{byte(sent)})
	})
	tk.Start()

	var moved *netstack.UDPSocket
	moveAt := cfg.Duration / 2
	sched.At(moveAt, "move", func() {
		var filter *capture.Filter
		var capSvc *capture.Service
		if useBroadcast {
			// Paper order: capture first on the destination, then disable.
			capSvc = capture.NewService(st2)
			filter = capSvc.Enable(netsim.FlowKey{LocalPort: port, Proto: netsim.ProtoUDP})
		}
		snap := netstack.SnapshotUDP(srv)
		srv.Unhash()
		restore := func() {
			var err error
			moved, err = netstack.RestoreUDP(st2, snap)
			if err != nil {
				panic(err)
			}
			if filter != nil {
				_, _ = capSvc.ReinjectAndDisable(filter)
			}
		}
		if useBroadcast {
			sched.After(freezeWindow, "restore", restore)
		} else {
			// The NAT baseline must additionally wait for the router
			// update before the new node sees any packets; during the
			// whole window traffic still lands on the dead socket.
			natR.UpdateMapping(netsim.ProtoUDP, port, n2pub, nil)
			sched.After(max(freezeWindow, natUpdateDelay), "restore", restore)
		}
	})

	sched.RunUntil(cfg.Duration)
	tk.Stop()
	sched.RunFor(100 * 1e6)

	res := &DispatchResult{Sent: sent}
	res.Delivered = srv.PacketsIn
	if moved != nil {
		res.Delivered = moved.PacketsIn // counter carried over in the snapshot
	}
	res.Lost = int(int64(res.Sent) - int64(res.Delivered))
	if useBroadcast {
		res.Mode = "broadcast+capture"
	} else {
		res.Mode = fmt.Sprintf("nat-dispatch(update=%v)", natUpdateDelay)
	}
	return res, nil
}

package eval

// outstandingExpected names, by cell key, the battery cells that break
// invariant 6 (nothingOutstanding) today: packets still out of their
// home pools after every socket released its queues. Two kinds: the
// failover cells whose old owner's service is closed down with one
// datagram still queued on its UDP port (Close leaves queued datagrams
// readable, and a closed socket is in no stack's table), and every Fig
// 5b/5c freeze point at the fixed point's seed, which is not drained:
// at seed 0 each repeat's last frame ends with one batch of client input
// on the wire. The invariant is the oracle of the fix: the
// list may only shrink, and expectOutstanding reports a listed cell that
// no longer breaks it. It holds every breaking cell of
// testdata/fixedpoint.txt (25); a cell off it that leaves packets out is
// a violation.
var outstandingExpected = keySet(`
failover/partition-heal/seed=1
failover/partition-heal/seed=2
failover/steady-crash/seed=1
failover/steady-crash/seed=2
freeze/c1024/collective/seed=0
freeze/c1024/incremental-collective/seed=0
freeze/c1024/iterative/seed=0
freeze/c128/collective/seed=0
freeze/c128/incremental-collective/seed=0
freeze/c128/iterative/seed=0
freeze/c16/collective/seed=0
freeze/c16/incremental-collective/seed=0
freeze/c16/iterative/seed=0
freeze/c256/collective/seed=0
freeze/c256/incremental-collective/seed=0
freeze/c256/iterative/seed=0
freeze/c32/collective/seed=0
freeze/c32/incremental-collective/seed=0
freeze/c32/iterative/seed=0
freeze/c512/collective/seed=0
freeze/c512/incremental-collective/seed=0
freeze/c512/iterative/seed=0
freeze/c64/collective/seed=0
freeze/c64/incremental-collective/seed=0
freeze/c64/iterative/seed=0
`)

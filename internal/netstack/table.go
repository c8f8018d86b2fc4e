package netstack

import (
	"math/bits"

	"dvemig/internal/netsim"
)

// The demux tables at the width their keys really have. A connection
// four-tuple is 96 bits — wider than any runtime map fast path, so a
// map[FourTuple] hashes it through memhash — and a port is 16, which
// needs no hash at all. Both tables are touched by every packet every
// node sees (on the broadcast cluster that is every client packet, two
// nodes in three only to find it is not theirs), so they are built for
// the miss as much as for the hit.

// ehashKey is a four-tuple packed for comparison and hashing. The local
// address stays in it: a server stack owns two addresses (cluster and
// in-cluster), and a migrated in-cluster socket may meet the destination's
// own connection to the same peer on the other three fields.
type ehashKey struct {
	addrs uint64 // LocalIP<<32 | RemoteIP
	ports uint32 // LocalPort<<16 | RemotePort
}

func makeEhashKey(localIP, remoteIP netsim.Addr, localPort, remotePort uint16) ehashKey {
	return ehashKey{
		addrs: uint64(localIP)<<32 | uint64(remoteIP),
		ports: uint32(localPort)<<16 | uint32(remotePort),
	}
}

func (t FourTuple) key() ehashKey {
	return makeEhashKey(t.LocalIP, t.RemoteIP, t.LocalPort, t.RemotePort)
}

// ekey is the key the socket is (or would be) hashed under. It is read
// from the identity fields, not stored: they are set before the socket
// is hashed and must not change while it is.
func (sk *TCPSocket) ekey() ehashKey {
	return makeEhashKey(sk.LocalIP, sk.RemoteIP, sk.LocalPort, sk.RemotePort)
}

// hash is a two-round multiply-mix; the bucket index is its top bits.
// Each round is a bijection, so keys differing in one field only (one
// port, the local address) never collapse before the final shift.
func (k ehashKey) hash() uint64 {
	h := k.addrs * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return (h + uint64(k.ports)) * 0xD6E8FEB86659FD93
}

// ehashTable is the established-connection table: a power-of-two bucket
// array with the chains threaded through the sockets themselves
// (TCPSocket.ehashNext), so an entry costs its bucket words and nothing
// else — no node, no stored key, no allocation outside growth. A socket
// sits in at most one table at a time. The table doubles when more than
// half as many sockets as buckets are hashed (8 bytes per extra bucket):
// a lookup that misses then usually meets an empty bucket instead of
// chasing a cold socket to compare its key. It never shrinks. The zero
// value is an empty table.
type ehashTable struct {
	buckets []*TCPSocket
	shift   uint // 64 - log2(len(buckets))
	n       int
}

const ehashMinBuckets = 8

func (t *ehashTable) len() int { return t.n }

func (t *ehashTable) get(k ehashKey) *TCPSocket {
	if t.n == 0 {
		return nil
	}
	for sk := t.buckets[k.hash()>>t.shift]; sk != nil; sk = sk.ehashNext {
		if sk.ekey() == k {
			return sk
		}
	}
	return nil
}

// put hashes sk under its own key, replacing a socket already there.
func (t *ehashTable) put(sk *TCPSocket) {
	k := sk.ekey()
	h := k.hash()
	if t.n > 0 {
		for link := &t.buckets[h>>t.shift]; *link != nil; link = &(*link).ehashNext {
			if old := *link; old.ekey() == k {
				if old != sk {
					*link, sk.ehashNext, old.ehashNext = sk, old.ehashNext, nil
				}
				return
			}
		}
	}
	if t.n >= len(t.buckets)/2 {
		t.grow()
	}
	head := &t.buckets[h>>t.shift]
	sk.ehashNext, *head = *head, sk
	t.n++
}

// del removes whichever socket is hashed under k, if any.
func (t *ehashTable) del(k ehashKey) {
	if t.n == 0 {
		return
	}
	for link := &t.buckets[k.hash()>>t.shift]; *link != nil; link = &(*link).ehashNext {
		if sk := *link; sk.ekey() == k {
			*link, sk.ehashNext = sk.ehashNext, nil
			t.n--
			return
		}
	}
}

// grow doubles the bucket array and relinks every socket.
func (t *ehashTable) grow() {
	old := t.buckets
	size := 2 * len(old)
	if size < ehashMinBuckets {
		size = ehashMinBuckets
	}
	t.buckets = make([]*TCPSocket, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, sk := range old {
		for sk != nil {
			next := sk.ehashNext
			head := &t.buckets[sk.ekey().hash()>>t.shift]
			sk.ehashNext, *head = *head, sk
			sk = next
		}
	}
}

// appendAll appends every hashed socket to dst, in no particular order.
func (t *ehashTable) appendAll(dst []*TCPSocket) []*TCPSocket {
	for _, sk := range t.buckets {
		for ; sk != nil; sk = sk.ehashNext {
			dst = append(dst, sk)
		}
	}
	return dst
}

// portTable maps a 16-bit port to a socket with no hash: a two-level
// radix, 256 pages of 256 ports. A page materialises on the first bind
// inside it and stays. The zero value is an empty table; deleting is
// set(port, nil).
type portTable[T any] struct {
	pages [256]*[256]*T
}

func (t *portTable[T]) get(port uint16) *T {
	if pg := t.pages[port>>8]; pg != nil {
		return pg[port&0xFF]
	}
	return nil
}

func (t *portTable[T]) set(port uint16, v *T) {
	pg := t.pages[port>>8]
	if pg == nil {
		if v == nil {
			return
		}
		pg = new([256]*T)
		t.pages[port>>8] = pg
	}
	pg[port&0xFF] = v
}

// each calls f on every socket in the table, in port order.
func (t *portTable[T]) each(f func(*T)) {
	for _, pg := range t.pages {
		if pg == nil {
			continue
		}
		for _, v := range pg {
			if v != nil {
				f(v)
			}
		}
	}
}

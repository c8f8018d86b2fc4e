package dve

import (
	"bytes"

	"dvemig/internal/netstack"
	"dvemig/internal/proc"
)

// DBPort is the database server port (MySQL's well-known port, matching
// the paper's MySQL sessions).
const DBPort = 3306

// DBServer is the database node's server process: a small key-value
// store speaking a line-oriented protocol ("SET key value;" → "OK;",
// "GET key;" → "VAL value;"). Zone servers keep one session each and
// repeatedly update properties of the virtual world (§VI-C).
type DBServer struct {
	Node     *proc.Node
	Proc     *proc.Process
	listener *netstack.TCPSocket
	// store maps a key to its value cell; a SET of a known key overwrites
	// the cell in place, so the steady state allocates nothing.
	store map[string]*[]byte
	reply []byte // "VAL …;" scratch (Send copies synchronously)

	// Sessions counts accepted connections; Queries counts commands.
	Sessions int
	Queries  uint64
}

var (
	dbOK  = []byte("OK;")
	dbErr = []byte("ERR;")
	dbSp  = []byte(" ")
)

// StartDBServer launches the database on a node.
func StartDBServer(n *proc.Node) (*DBServer, error) {
	s := &DBServer{Node: n, store: make(map[string]*[]byte)}
	s.Proc = n.Spawn("mysqld", 4)
	s.Proc.CPUDemand = 0.1
	s.listener = netstack.NewTCPSocket(n.Stack)
	if err := s.listener.Listen(n.LocalIP, DBPort); err != nil {
		return nil, err
	}
	s.listener.OnAccept = func(ch *netstack.TCPSocket) {
		s.Sessions++
		s.Proc.FDs.Install(&proc.TCPFile{Sock: ch})
		// buf holds the session's unparsed bytes; buf[:scanned] is known
		// to hold no ';', so a long unterminated command is scanned once,
		// not once per segment.
		var buf []byte
		scanned := 0
		ch.OnReadable = func() {
			buf = ch.RecvAppend(buf)
			start := 0
			for {
				i := bytes.IndexByte(buf[scanned:], ';')
				if i < 0 {
					scanned = len(buf)
					break
				}
				end := scanned + i
				s.handle(ch, buf[start:end])
				start, scanned = end+1, end+1
			}
			if start > 0 { // drop the consumed commands, keep the capacity
				buf = buf[:copy(buf, buf[start:])]
				scanned -= start
			}
		}
	}
	s.Proc.FDs.Install(&proc.TCPFile{Sock: s.listener})
	return s, nil
}

// handle runs one command: the trimmed text split at its first two
// spaces, so a value may itself contain spaces.
func (s *DBServer) handle(ch *netstack.TCPSocket, cmd []byte) {
	s.Queries++
	verb, rest, two := bytes.Cut(bytes.TrimSpace(cmd), dbSp)
	key, val, three := bytes.Cut(rest, dbSp)
	switch {
	case three && string(verb) == "SET":
		cell := s.store[string(key)]
		if cell == nil {
			cell = new([]byte)
			s.store[string(key)] = cell
		}
		*cell = append((*cell)[:0], val...)
		_ = ch.Send(dbOK)
	case two && !three && string(verb) == "GET":
		s.reply = append(s.reply[:0], "VAL "...)
		if cell := s.store[string(key)]; cell != nil {
			s.reply = append(s.reply, *cell...)
		}
		s.reply = append(s.reply, ';')
		_ = ch.Send(s.reply)
	default:
		_ = ch.Send(dbErr)
	}
}

// Get reads a stored value (test hook).
func (s *DBServer) Get(key string) string {
	if cell := s.store[key]; cell != nil {
		return string(*cell)
	}
	return ""
}

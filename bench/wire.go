package main

// wire.go wraps the faultnet.Transport the benchmark injects into its
// nodes. Every connection a client dials counts its bytes in both
// directions; only clients dial in the fetch workloads, so that is
// everything that crossed the transport. Down is provider → client
// (symbols), up is client → provider (requests, summaries, credits: the
// control cost the paper trades for useful symbols). Write calls are
// counted on both ends (the provider's through its wrapped listener), so
// bytes per write says how well frames are batched onto the wire.

import (
	"net"
	"sync/atomic"

	"icd/internal/faultnet"
)

// wireCounter accumulates transport traffic; safe for concurrent use.
type wireCounter struct {
	down, up atomic.Int64 // bytes, counted at the dialing end
	writes   atomic.Int64 // Write calls, both ends
	dials    atomic.Int64
}

// wireCounts is a point-in-time copy of a wireCounter.
type wireCounts struct {
	Down, Up, Writes, Dials int64
}

func (c *wireCounter) snapshot() wireCounts {
	return wireCounts{c.down.Load(), c.up.Load(), c.writes.Load(), c.dials.Load()}
}

func (a wireCounts) sub(b wireCounts) wireCounts {
	return wireCounts{a.Down - b.Down, a.Up - b.Up, a.Writes - b.Writes, a.Dials - b.Dials}
}

// countingTransport counts the connections dialed through it, and the
// Write calls on the connections its listeners accept.
type countingTransport struct {
	faultnet.Transport
	c *wireCounter
}

func (t countingTransport) Listen(addr string) (net.Listener, error) {
	ln, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: ln, c: t.c}, nil
}

type countingListener struct {
	net.Listener
	c *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &acceptedConn{Conn: conn, c: l.c}, nil
}

// acceptedConn is the listening end: its bytes are the dialing end's,
// counted there; only its Write calls are new information.
type acceptedConn struct {
	net.Conn
	c *wireCounter
}

func (c *acceptedConn) Write(p []byte) (int, error) {
	c.c.writes.Add(1)
	return c.Conn.Write(p)
}

func (t countingTransport) Dial(addr string) (net.Conn, error) {
	conn, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	t.c.dials.Add(1)
	return &countingConn{Conn: conn, c: t.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.down.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.up.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}

package node

import (
	"errors"
	"net"
	"time"

	"dip/internal/router"
)

// ServeUDP runs the node over a UDP overlay until conn is closed: DIP
// packets travel as datagrams, each peer is one router port (in order) and
// a route-exchange adjacency, and an incoming datagram is attributed to a
// port by its source address — unknown senders arrive on port 0. With the
// speaker on, its refresh cycle runs for as long as the loop does.
func (n *Node) ServeUDP(conn *net.UDPConn, peers []*net.UDPAddr) error {
	portOf := make(map[string]int, len(peers))
	for _, raddr := range peers {
		raddr := raddr
		idx := n.AttachPort(router.PortFunc(func(pkt []byte) {
			if _, err := conn.WriteToUDP(pkt, raddr); err != nil {
				n.logf("%s: send to %v: %v", n.Spec.Name, raddr, err)
			}
		}), true)
		portOf[raddr.String()] = idx
		n.logf("%s: port %d -> %v", n.Spec.Name, idx, raddr)
	}
	if n.Speaker != nil {
		tick := time.NewTicker(n.Spec.SpeakerRefresh)
		stop := make(chan struct{})
		done := make(chan struct{})
		defer func() { tick.Stop(); close(stop); <-done }()
		go func() {
			defer close(done)
			for {
				select {
				case <-tick.C:
					n.Speaker.Refresh()
				case <-stop:
					return
				}
			}
		}()
	}
	buf := make([]byte, 65535)
	for {
		nb, raddr, err := conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		inPort := portOf[raddr.String()] // unknown senders map to port 0
		if n.env.Log != nil {
			n.env.Log("%s: rx %d bytes from %v (port %d)", n.Spec.Name, nb, raddr, inPort)
		}
		pkt := buf[:nb]
		if n.Ingress != nil {
			// Submit transfers buffer ownership to the forwarders; the loop
			// reuses its buffer, so hand over a copy.
			pkt = append([]byte(nil), pkt...)
		}
		n.Handle(pkt, inPort)
	}
}

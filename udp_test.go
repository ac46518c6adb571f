package dip

// In-process UDP overlay test: the same library that runs on the simulator
// drives real sockets (the cmd/diprouter + cmd/diphost deployment shape),
// exercising the full NDN interest/data exchange across localhost.

import (
	"bytes"
	"net"
	"testing"
	"time"
)

func udpConn(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no UDP loopback available: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// serveUDP builds the node spec describes and runs diprouter's own socket
// loop (Node.ServeUDP) on conn with one port per peer, until the test ends.
func serveUDP(t *testing.T, spec NodeSpec, conn *net.UDPConn, peers ...*net.UDPConn) {
	t.Helper()
	n, err := BuildNode(spec, WallEnv(nil))
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]*net.UDPAddr, len(peers))
	for i, p := range peers {
		addrs[i] = p.LocalAddr().(*net.UDPAddr)
	}
	done := make(chan error, 1)
	go func() { done <- n.ServeUDP(conn, addrs) }()
	t.Cleanup(func() {
		conn.Close()
		if err := <-done; err != nil {
			t.Errorf("ServeUDP: %v", err)
		}
		n.Close()
	})
}

// udpModes runs a test against both shapes of the loop: packets handled
// inline on the reader, and copied into a guarded forwarder.
func udpModes(t *testing.T, run func(t *testing.T, workers int)) {
	for _, m := range []struct {
		name    string
		workers int
	}{{"inline", 0}, {"workers1", 1}} {
		t.Run(m.name, func(t *testing.T) { run(t, m.workers) })
	}
}

func TestUDPOverlayNDNExchange(t *testing.T) {
	udpModes(t, func(t *testing.T, workers int) {
		routerConn := udpConn(t)
		consumerConn := udpConn(t)
		producerConn := udpConn(t)

		// Router: port 0 → consumer, port 1 → producer, content under
		// 0xAA/8 routed to the producer.
		serveUDP(t, NodeSpec{
			Name:    "udp-router",
			Workers: workers,
			Names:   []NodeRoute{{Prefix: []byte{0xAA, 0, 0, 0}, Len: 8, Port: 1}},
		}, routerConn, consumerConn, producerConn)

		// Producer loop: answer any interest with data.
		go func() {
			buf := make([]byte, 65535)
			producerConn.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, _, err := producerConn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			v, err := ParsePacket(buf[:n])
			if err != nil || v.FNNum() == 0 || v.FN(0).Key != KeyFIB {
				t.Errorf("producer got unexpected packet: %v", err)
				return
			}
			reply, err := BuildPacket(NDNDataProfile(0xAA000042), []byte("udp bits"))
			if err != nil {
				t.Error(err)
				return
			}
			producerConn.WriteTo(reply, routerConn.LocalAddr())
		}()

		// The interest comes from a socket the router has no peer for, so it
		// is attributed to port 0 — and the data, following the PIT back out
		// of port 0, must reach the consumer.
		interest, err := BuildPacket(NDNInterestProfile(0xAA000042), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := udpConn(t).WriteTo(interest, routerConn.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 65535)
		consumerConn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := consumerConn.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("consumer receive: %v", err)
		}
		stack := NewHost()
		rx := stack.HandlePacket(buf[:n])
		if rx.Kind.String() != "delivered" || !bytes.Equal(rx.Payload, []byte("udp bits")) {
			t.Fatalf("rx %v payload %q", rx.Kind, rx.Payload)
		}
	})
}

func TestUDPOverlayOPTVerification(t *testing.T) {
	udpModes(t, func(t *testing.T, workers int) {
		routerConn := udpConn(t)
		consumerConn := udpConn(t)

		secret := bytes.Repeat([]byte{0x66}, 16)
		sv, err := NewSecret("udp-r", secret)
		if err != nil {
			t.Fatal(err)
		}
		dst, _ := NewSecret("udp-c", bytes.Repeat([]byte{0x77}, 16))
		sess, err := NewSession(MAC2EM, []HopConfig{{Secret: sv}}, dst)
		if err != nil {
			t.Fatal(err)
		}

		// A router whose only job is the OPT authentication chain, forwarding
		// everything to the consumer via a default DIP-32 route.
		serveUDP(t, NodeSpec{
			Name:     "udp-r",
			Workers:  workers,
			Secret:   secret,
			Routes32: []NodeRoute{{Prefix: []byte{0, 0, 0, 0}, Len: 0, Port: 0}},
		}, routerConn, consumerConn)

		// Source: OPT profile composed with DIP-32 forwarding in one header —
		// protocol composition over real sockets.
		payload := []byte("socket-verified")
		h, err := OPTProfile(sess, payload, 99)
		if err != nil {
			t.Fatal(err)
		}
		// Prepend forwarding: destination+source addresses after the OPT region.
		off := uint16(len(h.Locations) * 8)
		h.Locations = append(h.Locations, 10, 0, 0, 2, 10, 0, 0, 1)
		h.FNs = append([]FN{
			{Loc: off, Len: 32, Key: KeyMatch32},
			{Loc: off + 32, Len: 32, Key: KeySource},
		}, h.FNs...)
		pkt, err := BuildPacket(h, payload)
		if err != nil {
			t.Fatal(err)
		}
		sender := udpConn(t)
		if _, err := sender.WriteTo(pkt, routerConn.LocalAddr()); err != nil {
			t.Fatal(err)
		}

		buf := make([]byte, 65535)
		consumerConn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := consumerConn.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("consumer receive: %v", err)
		}
		stack := NewHost()
		stack.Sessions.Add(sess)
		rx := stack.HandlePacket(buf[:n])
		if rx.Kind.String() != "delivered" {
			t.Fatalf("verification over UDP failed: %v/%v", rx.Kind, rx.Reason)
		}
	})
}

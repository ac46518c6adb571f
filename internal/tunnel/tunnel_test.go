package tunnel

import (
	"bytes"
	"errors"
	"testing"

	"dip/internal/host"
	"dip/internal/ip"
	"dip/internal/profiles"
)

func dipPacket(t *testing.T) []byte {
	t.Helper()
	b, err := host.BuildPacket(profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}), []byte("inner"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEncapDecapRoundTrip(t *testing.T) {
	inner := dipPacket(t)
	outer, err := Encap(inner, [4]byte{192, 0, 2, 1}, [4]byte{192, 0, 2, 2}, 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ip.Parse4(outer)
	if err != nil {
		t.Fatal(err)
	}
	if h.Proto() != ip.ProtoDIP {
		t.Errorf("proto %d", h.Proto())
	}
	got, err := Decap(outer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, inner) {
		t.Error("inner packet corrupted")
	}
}

func TestDecapRejects(t *testing.T) {
	if _, err := Decap([]byte{1, 2, 3}); !errors.Is(err, ErrNotTunnel) {
		t.Errorf("short: %v", err)
	}
	// Valid IPv4 but wrong protocol.
	pkt := make([]byte, ip.HeaderLen4)
	ip.Build4(pkt, [4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, ip.ProtoUDP, 64, 0)
	if _, err := Decap(pkt); !errors.Is(err, ErrNotTunnel) {
		t.Errorf("wrong proto: %v", err)
	}
}

type captureCarrier struct{ pkts [][]byte }

func (c *captureCarrier) Send(p []byte) { c.pkts = append(c.pkts, append([]byte(nil), p...)) }

func TestEndpointSendReceive(t *testing.T) {
	carrier := &captureCarrier{}
	var delivered []byte
	ep := &Endpoint{
		Local:   [4]byte{10, 0, 0, 1},
		Remote:  [4]byte{10, 0, 0, 2},
		Carrier: carrier,
		Deliver: func(p []byte) { delivered = append([]byte(nil), p...) },
	}
	inner := dipPacket(t)
	ep.Send(inner)
	if ep.Sent != 1 || len(carrier.pkts) != 1 {
		t.Fatalf("sent=%d carried=%d", ep.Sent, len(carrier.pkts))
	}
	h, err := ip.Parse4(carrier.pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h.Dst(), []byte{10, 0, 0, 2}) || carrier.pkts[0][8] != 64 {
		t.Errorf("outer dst %v ttl %d", h.Dst(), carrier.pkts[0][8])
	}

	// The peer receives what this side carried.
	if err := ep.Receive(carrier.pkts[0]); err != nil {
		t.Fatal(err)
	}
	if ep.Received != 1 || !bytes.Equal(delivered, inner) {
		t.Errorf("received=%d payload ok=%v", ep.Received, bytes.Equal(delivered, inner))
	}
	// Junk from the legacy domain is rejected, not delivered.
	delivered = nil
	if err := ep.Receive([]byte{9, 9}); err == nil {
		t.Error("junk accepted")
	}
	if delivered != nil {
		t.Error("junk delivered")
	}
	// So is a well-formed IPv4 packet of any protocol but DIP's.
	other := make([]byte, ip.HeaderLen4+4)
	if err := ip.Build4(other, [4]byte{10, 0, 0, 2}, [4]byte{10, 0, 0, 1}, 0xFE, 64, 4); err != nil {
		t.Fatal(err)
	}
	if err := ep.Receive(other); !errors.Is(err, ErrNotTunnel) || delivered != nil {
		t.Errorf("protocol 0xFE: err=%v delivered=%v, want ErrNotTunnel and nothing", err, delivered != nil)
	}
}

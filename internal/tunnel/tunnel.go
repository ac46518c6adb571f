// Package tunnel carries DIP packets across DIP-agnostic domains by
// encapsulating them in IPv4 (paper §2.4: "one could use tunneling
// technology to build end-to-end path across DIP-agnostic domains").
// A tunnel endpoint is a router.Port: packets sent into it come out of the
// peer endpoint's router as if the legacy domain were one link.
package tunnel

import (
	"errors"
	"fmt"

	"dip/internal/ip"
)

// ErrNotTunnel reports a packet that is not DIP-in-IPv4.
var ErrNotTunnel = errors.New("tunnel: not a DIP-in-IPv4 packet")

// Encap wraps a DIP packet in an IPv4 header addressed from src to dst,
// with the DIP protocol number, appending to dst buffer semantics of
// building a fresh slice.
func Encap(dipPkt []byte, src, dst [4]byte, ttl uint8) ([]byte, error) {
	out := make([]byte, ip.HeaderLen4+len(dipPkt))
	if err := ip.Build4(out, src, dst, ip.ProtoDIP, ttl, len(dipPkt)); err != nil {
		return nil, err
	}
	copy(out[ip.HeaderLen4:], dipPkt)
	return out, nil
}

// Decap validates the outer IPv4 header and returns the inner DIP packet
// (aliasing the input).
func Decap(outer []byte) ([]byte, error) {
	h, err := ip.Parse4(outer)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotTunnel, err)
	}
	if h.Proto() != ip.ProtoDIP {
		return nil, fmt.Errorf("%w: protocol %d", ErrNotTunnel, h.Proto())
	}
	return h.Payload(), nil
}

// Carrier moves encapsulated packets across the legacy domain. The netsim
// Endpoint and a UDP socket both satisfy it.
type Carrier interface {
	Send(pkt []byte)
}

// Event classifies one observable action of a tunnel endpoint.
type Event uint8

// Tunnel endpoint events.
const (
	// EventEncap: a DIP packet was wrapped and handed to the carrier.
	EventEncap Event = iota
	// EventDecap: an inbound carrier packet was unwrapped and delivered.
	EventDecap
)

// Observer receives tunnel events as they happen. dipPkt is the inner DIP
// packet; it is valid only during the call. Observers run synchronously and
// must not block.
type Observer func(ev Event, dipPkt []byte)

// Endpoint is one end of a tunnel: a router.Port that encapsulates
// outbound DIP packets onto the carrier, plus a receive hook that
// decapsulates inbound carrier packets into the local router.
type Endpoint struct {
	// Local and Remote are the tunnel's outer IPv4 addresses.
	Local, Remote [4]byte
	// TTL is the outer header's hop budget across the legacy domain.
	TTL uint8
	// Carrier transports outer packets (the legacy domain).
	Carrier Carrier
	// Deliver receives decapsulated DIP packets (wire into the router's
	// HandlePacket with the tunnel's port index).
	Deliver func(dipPkt []byte)
	// Observer, when set, receives every tunnel event (journey tracing).
	Observer Observer
	// Sent and Received count tunneled data packets.
	Sent, Received int64
}

// Send implements router.Port: encapsulate and hand to the carrier.
func (e *Endpoint) Send(dipPkt []byte) {
	outer, err := Encap(dipPkt, e.Local, e.Remote, e.ttl())
	if err != nil {
		return
	}
	e.Sent++
	if e.Observer != nil {
		e.Observer(EventEncap, dipPkt)
	}
	e.Carrier.Send(outer)
}

// Receive accepts an outer packet from the legacy domain: tunneled DIP
// packets are decapsulated and delivered, anything else is reported.
func (e *Endpoint) Receive(outer []byte) error {
	inner, err := Decap(outer)
	if err != nil {
		return err
	}
	e.Received++
	if e.Observer != nil {
		e.Observer(EventDecap, inner)
	}
	if e.Deliver != nil {
		e.Deliver(inner)
	}
	return nil
}

func (e *Endpoint) ttl() uint8 {
	if e.TTL == 0 {
		return 64
	}
	return e.TTL
}

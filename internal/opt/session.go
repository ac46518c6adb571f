package opt

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"dip/internal/drkey"
)

// HopConfig is what one on-path router contributes to a session: its DRKey
// secret and the previous-validator label F_parm hands to F_MAC.
type HopConfig struct {
	Secret    *drkey.SecretValue
	PrevLabel [16]byte
	HopIndex  uint8
}

// Session is the outcome of OPT's key-negotiation handshake, held by the
// source and destination hosts: the session ID plus every hop key. Routers
// never hold a Session — they re-derive their key per packet from the
// session ID in the header (see HopConfig / internal/ops.Parm), which is
// the stateless property OPT is designed around.
type Session struct {
	ID         [drkey.SessionIDSize]byte
	Kind       Kind
	hopKeys    [][16]byte
	hopMACs    []MAC
	prevLabels [][16]byte
	destMAC    MAC
}

// NewSession simulates the OPT key-negotiation handshake for a path through
// the given hops to a destination holding destSecret: it picks a random
// session ID and derives each hop's key the same way the hop itself will
// (DRKey over the session ID), so the source ends up knowing every K_i —
// the contract the real handshake provides.
func NewSession(kind Kind, hops []HopConfig, destSecret *drkey.SecretValue) (*Session, error) {
	s := &Session{Kind: kind}
	if _, err := rand.Read(s.ID[:]); err != nil {
		return nil, err
	}
	for _, h := range hops {
		var k [16]byte
		if err := h.Secret.SessionKey(k[:], s.ID[:]); err != nil {
			return nil, err
		}
		m, err := NewMAC(kind, k[:])
		if err != nil {
			return nil, err
		}
		s.hopKeys = append(s.hopKeys, k)
		s.hopMACs = append(s.hopMACs, m)
		s.prevLabels = append(s.prevLabels, h.PrevLabel)
	}
	var kd [16]byte
	if err := destSecret.SessionKey(kd[:], s.ID[:]); err != nil {
		return nil, err
	}
	dm, err := NewMAC(kind, kd[:])
	if err != nil {
		return nil, err
	}
	s.destMAC = dm
	return s, nil
}

// Hops returns the number of validating hops on the session path.
func (s *Session) Hops() int { return len(s.hopMACs) }

// InitRegion fills a fresh OPT region for a packet with the given payload:
// data hash, session ID, timestamp, and the source-seeded PVF. The region
// must be RegionSize(s.Hops()) bytes.
func (s *Session) InitRegion(region, payload []byte, timestamp uint32) error {
	if len(region) != RegionSize(s.Hops()) {
		return fmt.Errorf("%w: %d bytes, want %d", ErrRegionSize, len(region), RegionSize(s.Hops()))
	}
	r, err := AsRegion(region)
	if err != nil {
		return err
	}
	ComputeDataHash(r.DataHash(), payload)
	copy(r.SessionID(), s.ID[:])
	binary.BigEndian.PutUint32(r.Timestamp(), timestamp)
	InitPVF(s.destMAC, r)
	for i := 0; i < r.Hops(); i++ {
		clear(r.OPV(i))
	}
	return nil
}

// Verify is the destination's F_ver: it re-derives the full tag chain from
// the payload and the session keys and checks every field the on-path
// routers were supposed to produce. The error identifies the first failing
// protection (payload integrity, path chain, or a specific hop's tag).
func (s *Session) Verify(region, payload []byte) error {
	if len(region) != RegionSize(s.Hops()) {
		return fmt.Errorf("%w: %d bytes, want %d", ErrRegionSize, len(region), RegionSize(s.Hops()))
	}
	r, err := AsRegion(region)
	if err != nil {
		return err
	}
	var wantHash [DataHashSize]byte
	ComputeDataHash(wantHash[:], payload)
	if !constEq(wantHash[:], r.DataHash()) {
		return ErrDataHash
	}
	// Replay the chain: state holds the pre-OPV region as hop i saw it.
	var state [MACInputSize]byte
	copy(state[:], r.MACInput())
	pvf := state[PVFOff : PVFOff+PVFSize]
	s.destMAC.SumInto(pvf, wantHash[:])
	for i := 0; i < s.Hops(); i++ {
		var wantOPV [OPVSize]byte
		ComputeOPV(s.hopMACs[i], wantOPV[:], state[:], s.prevLabels[i][:])
		if !constEq(wantOPV[:], r.OPV(i)) {
			return fmt.Errorf("%w: hop %d", ErrOPV, i)
		}
		UpdatePVF(s.hopMACs[i], pvf)
	}
	if !constEq(pvf, r.PVF()) {
		return ErrPVF
	}
	return nil
}

// ProcessHop applies one router's full OPT processing (parm+MAC+mark) to a
// region in place — the native, non-DIP OPT forwarder used to cross-check
// the DIP-decomposed operations and as a baseline.
func ProcessHop(cfg HopConfig, kind Kind, region []byte) error {
	r, err := AsRegion(region)
	if err != nil {
		return err
	}
	if int(cfg.HopIndex) >= r.Hops() {
		return fmt.Errorf("%w: hop index %d, region has %d slots", ErrRegionSize, cfg.HopIndex, r.Hops())
	}
	var k [16]byte
	if err := cfg.Secret.SessionKey(k[:], r.SessionID()); err != nil {
		return err
	}
	m, err := NewMAC(kind, k[:])
	if err != nil {
		return err
	}
	ComputeOPV(m, r.OPV(int(cfg.HopIndex)), r.MACInput(), cfg.PrevLabel[:])
	UpdatePVF(m, r.PVF())
	return nil
}

func constEq(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}

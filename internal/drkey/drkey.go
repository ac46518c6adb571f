// Package drkey derives the per-session router keys OPT's data plane needs.
//
// In OPT (Kim et al., SIGCOMM 2014) each on-path router i derives a dynamic
// key K_i from the packet's session ID and its own local secret value —
// "the router will derive a dynamic key from session ID in the packet header
// with its local key" (paper §3) — and the source host learns every K_i
// during session setup. This package provides both halves of that contract:
//
//   - Router side: a SecretValue held by each router, from which
//     SessionKey(sessionID) derives K_i on the fly (no per-session state).
//   - Host side: the same derivation run by whoever legitimately knows the
//     secret (our stand-in for OPT's key-distribution handshake; see
//     internal/opt for the simulated session setup that hands the derived
//     keys to the source).
//
// The PRF is the 2EM-CBC-MAC keyed by the secret value — the same
// Tofino-friendly primitive the prototype uses for its F_MAC operation
// (paper §4.1), which also keeps per-packet key derivation allocation-free
// in the forwarding path.
package drkey

import (
	"fmt"

	"dip/internal/crypto2em"
)

// KeySize is the size of secret values and derived keys in bytes.
const KeySize = 16

// SessionIDSize is the size of an OPT session ID in bytes (128 bits).
const SessionIDSize = 16

// SecretValue is a router's local secret from which all of its per-session
// keys derive. It is safe for concurrent use.
type SecretValue struct {
	prf crypto2em.Cipher
	id  string
}

// NewSecretValue wraps a 16-byte secret for the named router.
func NewSecretValue(routerID string, secret []byte) (*SecretValue, error) {
	if len(secret) != KeySize {
		return nil, fmt.Errorf("drkey: secret must be %d bytes, got %d", KeySize, len(secret))
	}
	var master [KeySize]byte
	copy(master[:], secret)
	return &SecretValue{prf: crypto2em.FromMaster(&master), id: routerID}, nil
}

// SessionKey writes the 16-byte key for sessionID into out (which must be
// exactly KeySize long). The derivation is deterministic, so routers need no
// per-session state — exactly the property OPT relies on. It never
// allocates.
func (sv *SecretValue) SessionKey(out, sessionID []byte) error {
	if len(out) != KeySize {
		return fmt.Errorf("drkey: out must be %d bytes, got %d", KeySize, len(out))
	}
	if len(sessionID) != SessionIDSize {
		return fmt.Errorf("drkey: session ID must be %d bytes, got %d", SessionIDSize, len(sessionID))
	}
	sv.prf.SumInto(out, sessionID)
	return nil
}

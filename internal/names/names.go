// Package names handles hierarchical content names and their compact 32-bit
// wire identifiers.
//
// The DIP prototype forwards NDN packets on a 32-bit content name (paper
// §4.1: "we take the 32-bit content name for the packet forwarding with
// F_FIB and F_PIT"). Human-readable hierarchical names such as
// "/org/hotnets/papers/dip" are therefore mapped to 32-bit IDs for the wire;
// a Registry records the mapping so hosts and routers agree, and prefix IDs
// let the 32-bit FIB still perform meaningful longest-prefix matching: the
// ID of a name embeds the IDs of its prefixes bitwise, so LPM over IDs
// approximates LPM over names.
package names

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
)

// MaxComponents bounds the number of name components encoded into an ID.
const MaxComponents = 8

// ErrBadName reports a syntactically invalid name.
var ErrBadName = errors.New("names: invalid name")

// Name is a parsed hierarchical content name.
type Name struct {
	components []string
}

// Parse converts "/a/b/c" (or "a/b/c") into a Name. Empty components are
// rejected; the root name "/" has zero components.
func Parse(s string) (Name, error) {
	s = strings.TrimPrefix(s, "/")
	if s == "" {
		return Name{}, nil
	}
	parts := strings.Split(s, "/")
	for _, p := range parts {
		if p == "" {
			return Name{}, fmt.Errorf("%w: empty component in %q", ErrBadName, s)
		}
	}
	return Name{components: parts}, nil
}

// MustParse is Parse that panics on error, for tests and literals.
func MustParse(s string) Name {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

// Len returns the number of components.
func (n Name) Len() int { return len(n.components) }

// String renders the canonical "/a/b/c" form; the root name renders as "/".
func (n Name) String() string {
	if len(n.components) == 0 {
		return "/"
	}
	return "/" + strings.Join(n.components, "/")
}

// Prefix returns the name truncated to k components.
func (n Name) Prefix(k int) Name {
	if k > len(n.components) {
		k = len(n.components)
	}
	if k < 0 {
		k = 0
	}
	return Name{components: n.components[:k]}
}

// Equal reports component-wise equality.
func (n Name) Equal(m Name) bool {
	if len(n.components) != len(m.components) {
		return false
	}
	for i, c := range n.components {
		if m.components[i] != c {
			return false
		}
	}
	return true
}

// ID computes the 32-bit wire identifier of a name. The ID is prefix-
// preserving: each component hashes to a fixed-width nibble group, so the
// first 4·k bits of ID(name) equal ID(prefix of k components) for k ≤ 8.
// This lets a 32-bit-keyed FIB emulate component LPM (with the hash-collision
// caveat documented in DESIGN.md).
func (n Name) ID() uint32 {
	var id uint32
	k := len(n.components)
	if k > MaxComponents {
		k = MaxComponents
	}
	for i := 0; i < k; i++ {
		h := fnv.New32a()
		// Include position so "/a/a" ≠ "/a" zero-extended by accident only.
		fmt.Fprintf(h, "%d/", i)
		h.Write([]byte(n.components[i]))
		nib := h.Sum32() & 0xF
		if nib == 0 {
			nib = 0xF // reserve 0 to mean "no component"
		}
		id |= nib << uint(28-4*i)
	}
	return id
}

// PrefixBits returns how many leading bits of the ID are determined by the
// name's components: 4 bits per component, capped at 32.
func (n Name) PrefixBits() int {
	k := len(n.components)
	if k > MaxComponents {
		k = MaxComponents
	}
	return 4 * k
}

// Registry maps 32-bit IDs back to full names so receivers can recover the
// human-readable name. It is safe for concurrent use.
type Registry struct {
	mu sync.RWMutex
	m  map[uint32]Name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[uint32]Name)}
}

// Register records name under its ID and returns the ID. Registering two
// different names with colliding IDs returns an error identifying the clash.
func (r *Registry) Register(n Name) (uint32, error) {
	id := n.ID()
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.m[id]; ok && !prev.Equal(n) {
		return 0, fmt.Errorf("names: ID %#08x collision between %s and %s", id, prev, n)
	}
	r.m[id] = n
	return id, nil
}

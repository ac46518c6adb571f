// Package xia implements the XIA (Han et al., NSDI 2012) addressing
// machinery DIP realizes through F_DAG and F_intent: directed-acyclic-graph
// addresses over typed identifiers (XIDs), a compact wire encoding that
// rides in the FN-locations region, and the fallback traversal algorithm
// routers run per hop.
//
// An address is a DAG whose sink (by convention the last node) is the
// intent — the principal the packet is ultimately for. Out-edges are
// ordered by priority: a router first tries the direct edge toward the
// intent and falls back to later edges (e.g. an AD→HID delivery path for a
// CID nobody caches nearby). The packet carries a "last visited node"
// pointer that records traversal progress across hops.
package xia

import (
	"errors"
	"fmt"
	"sync"
)

// XIDType is the principal type of an identifier.
type XIDType uint32

// Principal types from the XIA papers.
const (
	TypeAD  XIDType = 0x10 // autonomous domain
	TypeHID XIDType = 0x11 // host
	TypeSID XIDType = 0x12 // service
	TypeCID XIDType = 0x13 // content
)

// String names the principal type.
func (t XIDType) String() string {
	switch t {
	case TypeAD:
		return "AD"
	case TypeHID:
		return "HID"
	case TypeSID:
		return "SID"
	case TypeCID:
		return "CID"
	}
	return fmt.Sprintf("XID(%#x)", uint32(t))
}

// IDSize is the identifier size in bytes (XIA uses 160-bit hashes).
const IDSize = 20

// XID is one typed identifier.
type XID struct {
	Type XIDType
	ID   [IDSize]byte
}

// String renders "TYPE:hexprefix".
func (x XID) String() string {
	return fmt.Sprintf("%s:%x", x.Type, x.ID[:4])
}

// NewXID builds an XID from a type and up to IDSize identifier bytes
// (shorter inputs are zero-padded, a convenience for tests and examples).
func NewXID(t XIDType, id []byte) XID {
	x := XID{Type: t}
	copy(x.ID[:], id)
	return x
}

// MaxNodes bounds DAG size so addresses stay within the FN-locations region.
const MaxNodes = 15

// MaxEdges bounds per-node fallback fan-out, as in XIA's 4-edge nodes.
const MaxEdges = 4

// SourceIndex is the virtual entry node in LastVisited encoding.
const SourceIndex = -1

// Node is one DAG node: an XID plus prioritized out-edges (indices into the
// address's node array; edge 0 is tried first).
type Node struct {
	XID   XID
	Edges []int
}

// DAG is an XIA address. The last node is the intent. SrcEdges are the
// entry edges from the virtual source.
type DAG struct {
	SrcEdges []int
	Nodes    []Node
}

// Errors from encoding, decoding and traversal.
var (
	ErrBadDAG    = errors.New("xia: malformed DAG")
	ErrTruncated = errors.New("xia: truncated DAG encoding")
	ErrDead      = errors.New("xia: no routable edge (dead end)")
)

// Validate checks structural sanity: node/edge bounds, edge targets in
// range, at least one node, and acyclicity in priority order (edges must
// point forward — the canonical XIA encoding property that guarantees
// traversal terminates).
func (d *DAG) Validate() error {
	if len(d.Nodes) == 0 || len(d.Nodes) > MaxNodes {
		return fmt.Errorf("%w: %d nodes", ErrBadDAG, len(d.Nodes))
	}
	if len(d.SrcEdges) == 0 || len(d.SrcEdges) > MaxEdges {
		return fmt.Errorf("%w: %d source edges", ErrBadDAG, len(d.SrcEdges))
	}
	check := func(from int, edges []int) error {
		if len(edges) > MaxEdges {
			return fmt.Errorf("%w: node %d has %d edges", ErrBadDAG, from, len(edges))
		}
		for _, e := range edges {
			if e < 0 || e >= len(d.Nodes) {
				return fmt.Errorf("%w: edge target %d out of range", ErrBadDAG, e)
			}
			if e <= from {
				return fmt.Errorf("%w: edge %d→%d not forward", ErrBadDAG, from, e)
			}
		}
		return nil
	}
	if err := check(SourceIndex, d.SrcEdges); err != nil {
		return err
	}
	for i, n := range d.Nodes {
		if err := check(i, n.Edges); err != nil {
			return err
		}
	}
	return nil
}

// IntentIndex returns the index of the intent node.
func (d *DAG) IntentIndex() int { return len(d.Nodes) - 1 }

// Intent returns the intent XID.
func (d *DAG) Intent() XID { return d.Nodes[d.IntentIndex()].XID }

// WireSize returns the encoded size: 3 fixed bytes, the source edge list,
// and 25 bytes + edge list per node.
func (d *DAG) WireSize() int {
	n := 3 + len(d.SrcEdges)
	for _, node := range d.Nodes {
		n += 4 + IDSize + 1 + len(node.Edges)
	}
	return n
}

// Encode writes the DAG with the given last-visited pointer into dst and
// returns the number of bytes written. Layout:
//
//	[lastVisited 1B (0xFF = source)] [numNodes 1B]
//	[numSrcEdges 1B] [srcEdges ...]
//	per node: [type 4B BE] [id 20B] [numEdges 1B] [edges ...]
func (d *DAG) Encode(dst []byte, lastVisited int) (int, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if lastVisited < SourceIndex || lastVisited >= len(d.Nodes) {
		return 0, fmt.Errorf("%w: lastVisited %d", ErrBadDAG, lastVisited)
	}
	need := d.WireSize()
	if len(dst) < need {
		return 0, fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, need, len(dst))
	}
	pos := 0
	if lastVisited == SourceIndex {
		dst[pos] = 0xFF
	} else {
		dst[pos] = byte(lastVisited)
	}
	pos++
	dst[pos] = byte(len(d.Nodes))
	pos++
	dst[pos] = byte(len(d.SrcEdges))
	pos++
	for _, e := range d.SrcEdges {
		dst[pos] = byte(e)
		pos++
	}
	for _, n := range d.Nodes {
		t := uint32(n.XID.Type)
		dst[pos], dst[pos+1], dst[pos+2], dst[pos+3] = byte(t>>24), byte(t>>16), byte(t>>8), byte(t)
		pos += 4
		copy(dst[pos:], n.XID.ID[:])
		pos += IDSize
		dst[pos] = byte(len(n.Edges))
		pos++
		for _, e := range n.Edges {
			dst[pos] = byte(e)
			pos++
		}
	}
	return pos, nil
}

// Decode parses an encoded DAG, returning the address, the last-visited
// pointer, and the encoded length consumed.
func Decode(b []byte) (*DAG, int, int, error) {
	if len(b) < 3 {
		return nil, 0, 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	lastVisited := SourceIndex
	if b[0] != 0xFF {
		lastVisited = int(b[0])
	}
	numNodes := int(b[1])
	numSrc := int(b[2])
	pos := 3
	if pos+numSrc > len(b) {
		return nil, 0, 0, ErrTruncated
	}
	d := &DAG{}
	for i := 0; i < numSrc; i++ {
		d.SrcEdges = append(d.SrcEdges, int(b[pos]))
		pos++
	}
	for i := 0; i < numNodes; i++ {
		if pos+4+IDSize+1 > len(b) {
			return nil, 0, 0, ErrTruncated
		}
		t := XIDType(uint32(b[pos])<<24 | uint32(b[pos+1])<<16 | uint32(b[pos+2])<<8 | uint32(b[pos+3]))
		pos += 4
		var n Node
		n.XID.Type = t
		copy(n.XID.ID[:], b[pos:pos+IDSize])
		pos += IDSize
		ne := int(b[pos])
		pos++
		if pos+ne > len(b) {
			return nil, 0, 0, ErrTruncated
		}
		for j := 0; j < ne; j++ {
			n.Edges = append(n.Edges, int(b[pos]))
			pos++
		}
		d.Nodes = append(d.Nodes, n)
	}
	if err := d.Validate(); err != nil {
		return nil, 0, 0, err
	}
	if lastVisited >= len(d.Nodes) {
		return nil, 0, 0, fmt.Errorf("%w: lastVisited %d of %d nodes", ErrBadDAG, lastVisited, len(d.Nodes))
	}
	return d, lastVisited, pos, nil
}

// SetLastVisited patches the last-visited pointer of an encoded DAG in
// place — the only mutation routers make, so forwarding avoids re-encoding.
func SetLastVisited(encoded []byte, lastVisited int) error {
	if len(encoded) < 1 {
		return ErrTruncated
	}
	if lastVisited == SourceIndex {
		encoded[0] = 0xFF
		return nil
	}
	if lastVisited < 0 || lastVisited > 0xFE {
		return fmt.Errorf("%w: lastVisited %d", ErrBadDAG, lastVisited)
	}
	encoded[0] = byte(lastVisited)
	return nil
}

// Resolver is a router's view of XID reachability.
type Resolver interface {
	// Lookup returns the egress port toward x.
	Lookup(x XID) (port int, ok bool)
	// IsLocal reports whether x names this node (its own AD or HID, a
	// service it hosts, content it caches).
	IsLocal(x XID) bool
}

// DecisionKind classifies a traversal outcome.
type DecisionKind uint8

// Traversal outcomes.
const (
	// DecisionForward: forward on Port; NewLast records progress.
	DecisionForward DecisionKind = iota
	// DecisionIntent: the intent node is local — hand to F_intent.
	DecisionIntent
	// DecisionDead: no edge was routable; drop.
	DecisionDead
)

// Decision is the result of one hop's DAG traversal.
type Decision struct {
	Kind    DecisionKind
	Port    int
	NewLast int
}

// RouteTable is a thread-safe Resolver backed by per-type exact-match
// tables, the way XIA routers keep separate AD/HID/SID/CID tables.
type RouteTable struct {
	mu     sync.RWMutex
	routes map[XID]int
	local  map[XID]bool
}

// NewRouteTable returns an empty table.
func NewRouteTable() *RouteTable {
	return &RouteTable{routes: make(map[XID]int), local: make(map[XID]bool)}
}

// AddRoute installs port as the next hop toward x.
func (t *RouteTable) AddRoute(x XID, port int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routes[x] = port
}

// AddLocal declares x local to this node.
func (t *RouteTable) AddLocal(x XID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.local[x] = true
}

// Lookup implements Resolver.
func (t *RouteTable) Lookup(x XID) (int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p, ok := t.routes[x]
	return p, ok
}

// IsLocal implements Resolver.
func (t *RouteTable) IsLocal(x XID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.local[x]
}

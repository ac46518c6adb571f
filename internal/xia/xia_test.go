package xia

import (
	"bytes"
	"errors"
	"testing"
)

// fallbackDAG builds the canonical XIA example: intent CID with a fallback
// path source→AD→HID→CID.
//
//	source ──→ CID (intent, node 2)
//	   └─fallback→ AD (0) ──→ HID (1) ──→ CID (2)
func fallbackDAG() *DAG {
	ad := NewXID(TypeAD, []byte("ad1"))
	hid := NewXID(TypeHID, []byte("host1"))
	cid := NewXID(TypeCID, []byte("content1"))
	return &DAG{
		SrcEdges: []int{2, 0}, // try intent directly, fall back to AD
		Nodes: []Node{
			{XID: ad, Edges: []int{2, 1}}, // AD: try intent, fall back to HID
			{XID: hid, Edges: []int{2}},
			{XID: cid},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := fallbackDAG().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &DAG{SrcEdges: []int{0}, Nodes: []Node{{Edges: []int{0}}}}
	if err := bad.Validate(); !errors.Is(err, ErrBadDAG) {
		t.Errorf("self-edge: %v", err)
	}
	back := &DAG{SrcEdges: []int{1}, Nodes: []Node{
		{}, {Edges: []int{0}},
	}}
	if err := back.Validate(); !errors.Is(err, ErrBadDAG) {
		t.Errorf("backward edge: %v", err)
	}
	empty := &DAG{SrcEdges: []int{0}}
	if err := empty.Validate(); !errors.Is(err, ErrBadDAG) {
		t.Errorf("no nodes: %v", err)
	}
	noSrc := &DAG{Nodes: []Node{{}}}
	if err := noSrc.Validate(); !errors.Is(err, ErrBadDAG) {
		t.Errorf("no source edges: %v", err)
	}
	out := &DAG{SrcEdges: []int{5}, Nodes: []Node{{}}}
	if err := out.Validate(); !errors.Is(err, ErrBadDAG) {
		t.Errorf("edge out of range: %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := fallbackDAG()
	buf := make([]byte, d.WireSize())
	n, err := d.Encode(buf, SourceIndex)
	if err != nil {
		t.Fatal(err)
	}
	if n != d.WireSize() {
		t.Errorf("encoded %d bytes, WireSize %d", n, d.WireSize())
	}
	got, last, consumed, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if last != SourceIndex || consumed != n {
		t.Errorf("last=%d consumed=%d", last, consumed)
	}
	if !got.Equal(d) {
		t.Error("round trip mismatch")
	}

	// Non-source lastVisited survives the trip.
	d.Encode(buf, 1)
	_, last, _, err = Decode(buf)
	if err != nil || last != 1 {
		t.Errorf("last=%d err=%v", last, err)
	}
}

func TestEncodeErrors(t *testing.T) {
	d := fallbackDAG()
	if _, err := d.Encode(make([]byte, 5), SourceIndex); !errors.Is(err, ErrTruncated) {
		t.Errorf("short dst: %v", err)
	}
	if _, err := d.Encode(make([]byte, d.WireSize()), 9); !errors.Is(err, ErrBadDAG) {
		t.Errorf("bad lastVisited: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, _, err := Decode([]byte{0xFF}); !errors.Is(err, ErrTruncated) {
		t.Errorf("tiny: %v", err)
	}
	d := fallbackDAG()
	buf := make([]byte, d.WireSize())
	d.Encode(buf, SourceIndex)
	if _, _, _, err := Decode(buf[:10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated nodes: %v", err)
	}
	// lastVisited beyond node count.
	buf[0] = 9
	if _, _, _, err := Decode(buf); !errors.Is(err, ErrBadDAG) {
		t.Errorf("lastVisited range: %v", err)
	}
}

func TestSetLastVisited(t *testing.T) {
	d := fallbackDAG()
	buf := make([]byte, d.WireSize())
	d.Encode(buf, SourceIndex)
	if err := SetLastVisited(buf, 2); err != nil {
		t.Fatal(err)
	}
	_, last, _, _ := Decode(buf)
	if last != 2 {
		t.Errorf("last = %d", last)
	}
	if err := SetLastVisited(buf, SourceIndex); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xFF {
		t.Error("source encoding")
	}
	if err := SetLastVisited(nil, 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil: %v", err)
	}
	if err := SetLastVisited(buf, 400); !errors.Is(err, ErrBadDAG) {
		t.Errorf("overflow: %v", err)
	}
}

func TestTraverseDirectIntentRoute(t *testing.T) {
	d := fallbackDAG()
	rt := NewRouteTable()
	rt.AddRoute(d.Nodes[2].XID, 7) // CID directly routable
	dec := Traverse(d, SourceIndex, rt)
	if dec.Kind != DecisionForward || dec.Port != 7 || dec.NewLast != 2 {
		t.Errorf("got %+v", dec)
	}
}

func TestTraverseFallbackToAD(t *testing.T) {
	d := fallbackDAG()
	rt := NewRouteTable()
	rt.AddRoute(d.Nodes[0].XID, 3) // only the AD is routable
	dec := Traverse(d, SourceIndex, rt)
	if dec.Kind != DecisionForward || dec.Port != 3 || dec.NewLast != 0 {
		t.Errorf("got %+v", dec)
	}
}

func TestTraverseLocalAdvances(t *testing.T) {
	// At the AD's border router: AD is local, HID routable — traversal must
	// advance through the local AD node and forward toward the HID.
	d := fallbackDAG()
	rt := NewRouteTable()
	rt.AddLocal(d.Nodes[0].XID)
	rt.AddRoute(d.Nodes[1].XID, 4)
	dec := Traverse(d, SourceIndex, rt)
	if dec.Kind != DecisionForward || dec.Port != 4 || dec.NewLast != 1 {
		t.Errorf("got %+v", dec)
	}
}

func TestTraverseIntentLocal(t *testing.T) {
	d := fallbackDAG()
	rt := NewRouteTable()
	rt.AddLocal(d.Nodes[2].XID)
	dec := Traverse(d, SourceIndex, rt)
	if dec.Kind != DecisionIntent || dec.NewLast != 2 {
		t.Errorf("got %+v", dec)
	}
}

func TestTraverseResumesFromLastVisited(t *testing.T) {
	// Packet already progressed to the HID node (index 1); this router
	// only knows the intent.
	d := fallbackDAG()
	rt := NewRouteTable()
	rt.AddRoute(d.Nodes[2].XID, 9)
	dec := Traverse(d, 1, rt)
	if dec.Kind != DecisionForward || dec.Port != 9 || dec.NewLast != 2 {
		t.Errorf("got %+v", dec)
	}
}

func TestTraverseDeadEnd(t *testing.T) {
	d := fallbackDAG()
	dec := Traverse(d, SourceIndex, NewRouteTable())
	if dec.Kind != DecisionDead {
		t.Errorf("got %+v", dec)
	}
}

func TestTraverseChainOfLocals(t *testing.T) {
	// Every node local: traversal walks the whole chain to the intent.
	d := fallbackDAG()
	rt := NewRouteTable()
	for _, n := range d.Nodes {
		rt.AddLocal(n.XID)
	}
	dec := Traverse(d, SourceIndex, rt)
	if dec.Kind != DecisionIntent || dec.NewLast != 2 {
		t.Errorf("got %+v", dec)
	}
}

func TestRouteTableRemove(t *testing.T) {
	rt := NewRouteTable()
	x := NewXID(TypeHID, []byte("h"))
	rt.AddRoute(x, 1)
	if _, ok := rt.Lookup(x); !ok {
		t.Fatal("route missing")
	}
	rt.RemoveRoute(x)
	if _, ok := rt.Lookup(x); ok {
		t.Error("route survived removal")
	}
}

func TestXIDString(t *testing.T) {
	x := NewXID(TypeCID, []byte{0xAB, 0xCD})
	if got := x.String(); got != "CID:abcd0000" {
		t.Errorf("got %q", got)
	}
	if XIDType(0x99).String() != "XID(0x99)" {
		t.Error("unknown type string")
	}
}

func TestIntentAccessors(t *testing.T) {
	d := fallbackDAG()
	if d.IntentIndex() != 2 || d.Intent().Type != TypeCID {
		t.Errorf("intent %d %v", d.IntentIndex(), d.Intent())
	}
}

// RemoveRoute withdraws the route toward x.
func (t *RouteTable) RemoveRoute(x XID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.routes, x)
}

// Equal reports structural equality of two DAGs (for tests).
func (d *DAG) Equal(o *DAG) bool {
	if len(d.Nodes) != len(o.Nodes) || len(d.SrcEdges) != len(o.SrcEdges) {
		return false
	}
	for i := range d.SrcEdges {
		if d.SrcEdges[i] != o.SrcEdges[i] {
			return false
		}
	}
	for i := range d.Nodes {
		a, b := d.Nodes[i], o.Nodes[i]
		if a.XID.Type != b.XID.Type || !bytes.Equal(a.XID.ID[:], b.XID.ID[:]) || len(a.Edges) != len(b.Edges) {
			return false
		}
		for j := range a.Edges {
			if a.Edges[j] != b.Edges[j] {
				return false
			}
		}
	}
	return true
}

// Traverse runs XIA's per-hop fallback algorithm: starting from the node
// after lastVisited, try that node's out-edges in priority order. A local
// node advances traversal within this hop; a routable node forwards; the
// intent being local terminates with DecisionIntent.
func Traverse(d *DAG, lastVisited int, r Resolver) Decision {
	cur := lastVisited
	for iter := 0; iter <= len(d.Nodes); iter++ {
		var edges []int
		if cur == SourceIndex {
			edges = d.SrcEdges
		} else {
			edges = d.Nodes[cur].Edges
		}
		advanced := false
		for _, e := range edges {
			x := d.Nodes[e].XID
			if r.IsLocal(x) {
				if e == d.IntentIndex() {
					return Decision{Kind: DecisionIntent, NewLast: e}
				}
				cur = e
				advanced = true
				break
			}
			if port, ok := r.Lookup(x); ok {
				return Decision{Kind: DecisionForward, Port: port, NewLast: e}
			}
		}
		if !advanced {
			return Decision{Kind: DecisionDead, NewLast: cur}
		}
	}
	return Decision{Kind: DecisionDead, NewLast: cur}
}

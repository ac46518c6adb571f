package lpm

// NameTrie is a longest-prefix-match trie over hierarchical names
// ("/com/example/video/1" → components ["com","example","video","1"]),
// the structure NDN FIBs use. Values attach to whole component prefixes;
// Lookup returns the value of the longest stored component prefix.
type NameTrie[V any] struct {
	root *nameNode[V]
	size int
}

type nameNode[V any] struct {
	children map[string]*nameNode[V]
	has      bool
	val      V
}

// NewNameTrie returns an empty name trie.
func NewNameTrie[V any]() *NameTrie[V] {
	return &NameTrie[V]{root: &nameNode[V]{}}
}

// clone returns a shallow copy of n with a private children map (the child
// nodes themselves stay shared until cloned in turn).
func (n *nameNode[V]) clone() *nameNode[V] {
	c := &nameNode[V]{has: n.has, val: n.val}
	if n.children != nil {
		c.children = make(map[string]*nameNode[V], len(n.children))
		for k, v := range n.children {
			c.children[k] = v
		}
	}
	return c
}

// Len returns the number of stored name prefixes.
func (t *NameTrie[V]) Len() int { return t.size }

// Lookup returns the value of the longest stored prefix of components and
// the number of components it matched.
func (t *NameTrie[V]) Lookup(components []string) (v V, matched int, ok bool) {
	n := t.root
	if n.has {
		v, matched, ok = n.val, 0, true
	}
	for i, c := range components {
		next, found := n.children[c]
		if !found {
			return v, matched, ok
		}
		n = next
		if n.has {
			v, matched, ok = n.val, i+1, true
		}
	}
	return v, matched, ok
}

// Get returns the value stored at exactly the given component prefix.
func (t *NameTrie[V]) Get(components []string) (v V, ok bool) {
	n := t.root
	for _, c := range components {
		next, found := n.children[c]
		if !found {
			var zero V
			return zero, false
		}
		n = next
	}
	if !n.has {
		var zero V
		return zero, false
	}
	return n.val, true
}

// InsertCOW stores v under the component prefix in a successor trie and
// reports whether the prefix was newly created. The empty prefix (root) is
// allowed and acts as a default route. The receiver is never modified; the
// returned trie shares every untouched subtree with it.
func (t *NameTrie[V]) InsertCOW(components []string, v V) (nt *NameTrie[V], created bool) {
	nt = &NameTrie[V]{root: t.root.clone(), size: t.size}
	n := nt.root
	for _, c := range components {
		if n.children == nil {
			n.children = make(map[string]*nameNode[V])
		}
		next, ok := n.children[c]
		if ok {
			next = next.clone()
		} else {
			next = &nameNode[V]{}
		}
		n.children[c] = next
		n = next
	}
	if !n.has {
		nt.size++
		created = true
	}
	n.has = true
	n.val = v
	return nt, created
}

// DeleteCOW removes the exact component prefix in a successor trie and
// reports whether it existed; empty interior nodes are pruned. When the
// prefix is absent it returns the receiver itself (no allocation).
func (t *NameTrie[V]) DeleteCOW(components []string) (*NameTrie[V], bool) {
	if _, ok := t.Get(components); !ok {
		return t, false
	}
	nt := &NameTrie[V]{root: t.root.clone(), size: t.size - 1}
	n := nt.root
	for _, c := range components {
		next := n.children[c].clone()
		n.children[c] = next
		n = next
	}
	var zero V
	n.has = false
	n.val = zero
	// Prune now-empty tail nodes: walk the cloned path again from the root.
	nt.prune(nt.root, components)
	return nt, true
}

// prune removes empty (valueless, childless) nodes along the cloned path.
func (t *NameTrie[V]) prune(n *nameNode[V], rest []string) bool {
	if len(rest) == 0 {
		return !n.has && len(n.children) == 0
	}
	child := n.children[rest[0]]
	if child != nil && t.prune(child, rest[1:]) {
		delete(n.children, rest[0])
	}
	return !n.has && len(n.children) == 0
}

// Walk visits every stored prefix in unspecified order; returning false
// stops the walk.
func (t *NameTrie[V]) Walk(fn func(components []string, v V) bool) {
	t.walk(t.root, nil, fn)
}

func (t *NameTrie[V]) walk(n *nameNode[V], prefix []string, fn func([]string, V) bool) bool {
	if n.has {
		cp := make([]string, len(prefix))
		copy(cp, prefix)
		if !fn(cp, n.val) {
			return false
		}
	}
	for c, child := range n.children {
		if !t.walk(child, append(prefix, c), fn) {
			return false
		}
	}
	return true
}

// Package node is the one place a DIP node is assembled. A Spec is the
// plain-data description of a node (tables, cache tiers, PIT sizing, guard
// and serve sizing, observability sampling, the route-exchange speaker); an
// Env carries what differs between a live process and a virtual-time
// simulation; Build turns the pair into a running Node. cmd/diprouter
// (flags) and internal/topo (the scenario DSL) are parsers onto Spec — the
// same description yields the same node in both environments.
package node

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"dip/internal/fib"
	"dip/internal/guard"
)

// LocalPort is the Route.Port meaning "deliver to this node".
const LocalPort = fib.PortLocal

// Route is one static forwarding entry.
type Route struct {
	// Prefix is the key, zero-padded to the table width: 4 bytes for the
	// 32-bit and content-name tables, 16 for the 128-bit table.
	Prefix []byte
	// Len is the prefix length in bits.
	Len int
	// Port is the egress port index, or LocalPort.
	Port int
}

// Spec describes one node. Each field names the diprouter flag and/or topo
// DSL key it carries; zero values mean "off" or "default" exactly as those
// do.
type Spec struct {
	// Name labels the node in metrics, spans, postcards and speaker
	// messages, and seeds its DRKey identity (-listen; `router NAME`).
	Name string

	Routes32  []Route // -route32; `route32`
	Routes128 []Route // -route128; `route128`
	Names     []Route // -name; `name`

	MaxFNs      int    // -maxfns: per-packet FN budget (0 = wire max)
	Secret      []byte // -secret; secret=: 16-byte DRKey secret enabling the OPT ops
	HopIndex    uint8  // hopindex=: this hop's position in OPT sessions
	RequirePass bool   // requirepass: F_PIT refuses unlabelled payloads

	Cache      int    // -cache; cache=: hot content-store entries (0 = no cache)
	CSShards   int    // -csshards; csshards=: hot-tier lock shards (0 = 1, exact LRU)
	CSCold     int    // -cscold; cscold=: cold-arena slots (0 = no cold tier)
	CSSlot     int    // -csslot; csslot=: cold slot payload bytes (0 = 2048)
	CSReaders  int    // -csreaders: async cold readers (0 = 2; unused when Env.SyncCold)
	CSColdFile string // -cscold-file: arena backing file (empty = unlinked temp)

	PITPerPort int // -pitperport; pitperport=: per-inport pending-interest cap
	PITShards  int // -pitshards; pitshards=: PIT lock shards
	// PITTTL is the pending-interest lifetime, and so also the interval of
	// the PIT sweep on the Env's timer (0 = pit.DefaultTTL, 4s). It has no
	// flag or DSL key: no deployment or scenario sets one. Simulations that
	// model short retransmission timers (the consumer fleet, the chaos
	// rigs) set it so a retransmitted interest outlives the stale entry.
	PITTTL time.Duration

	// Workers, Queue and Batch size the guarded ingress, which exists when
	// Workers or Batch is set. Workers 0 with Batch > 0 is pump mode: no
	// goroutines, each admitted packet's burst runs on the caller (deferred
	// through Env.Defer) — what the simulator uses.
	Workers   int        // -workers: forwarder goroutines
	Queue     int        // -queue; queue=: per-class queue depth (0 = 256)
	Batch     int        // -batch; batch=: run-to-completion burst size (0 = 64)
	AdmitPort guard.Rate // -admit-port: per-inport token bucket
	AdmitBulk guard.Rate // -admit-bulk: bulk-class token bucket

	// TraceEvery samples every Nth packet into the trace ring and, as a
	// router span, into the journey sink (-trace-every; diptopo -journeys
	// with -journey-every).
	TraceEvery int
	TraceRing  int // -trace-ring: trace ring records (0 = default)

	// IntEvery registers the F_tel stamping op and, at this node's
	// delivering edge, strips every IntEvery-th telemetry-carrying packet
	// into the postcard collector (-int-every; int=).
	IntEvery int
	IntSlots int // -int-slots; intslots=: F_tel slots on packets this node originates (0 = 8)
	// HopID is this node's ID in F_tel hop records. Topologies number their
	// routers; 0 derives it from a hash of Name, as diprouter does with
	// -listen.
	HopID uint32

	Speaker          bool          // -speaker; `speakers`: run the route-exchange speaker
	SpeakerRefresh   time.Duration // -speaker-refresh; refresh=
	SpeakerHold      time.Duration // -speaker-hold; hold= (0 = 3x refresh)
	SpeakerMaxMetric int           // maxmetric= (0 = 16)
}

// guarded reports whether the spec asks for the ingress guard layer.
func (s *Spec) guarded() bool { return s.Workers > 0 || s.Batch > 0 }

// Validate rejects settings that would otherwise be silently ignored or
// misapplied, with one message per mistake whichever parser produced the
// Spec. Keys are named without their flag dash or DSL "=".
func (s *Spec) Validate() error {
	for _, c := range []struct {
		key string
		v   int
	}{
		{"maxfns", s.MaxFNs}, {"cache", s.Cache}, {"csshards", s.CSShards}, {"cscold", s.CSCold},
		{"csslot", s.CSSlot}, {"csreaders", s.CSReaders}, {"pitperport", s.PITPerPort},
		{"pitshards", s.PITShards}, {"workers", s.Workers}, {"queue", s.Queue}, {"batch", s.Batch},
		{"trace-every", s.TraceEvery}, {"trace-ring", s.TraceRing}, {"int-every", s.IntEvery},
		{"int-slots", s.IntSlots}, {"maxmetric", s.SpeakerMaxMetric},
	} {
		if c.v < 0 {
			return fmt.Errorf("%s must not be negative, got %d", c.key, c.v)
		}
	}
	for _, c := range []struct {
		set   bool
		key   string
		have  bool
		needs string
	}{
		{s.CSCold > 0, "cscold", s.Cache > 0, "a hot tier; add cache"},
		{s.CSShards > 0, "csshards", s.Cache > 0, "cache"},
		{s.CSSlot > 0, "csslot", s.CSCold > 0, "cscold"},
		{s.CSReaders > 0, "csreaders", s.CSCold > 0, "cscold"},
		{s.CSColdFile != "", "cscold-file", s.CSCold > 0, "cscold"},
		{s.Queue > 0, "queue", s.guarded(), "the guarded ingress; add batch or workers"},
		{s.AdmitPort != guard.Rate{}, "admit-port", s.guarded(), "the guarded ingress; add batch or workers"},
		{s.AdmitBulk != guard.Rate{}, "admit-bulk", s.guarded(), "the guarded ingress; add batch or workers"},
		{s.TraceRing > 0, "trace-ring", s.TraceEvery > 0, "trace-every"},
		{s.IntSlots > 0, "int-slots", s.IntEvery > 0, "int-every"},
	} {
		if c.set && !c.have {
			return fmt.Errorf("%s needs %s", c.key, c.needs)
		}
	}
	if s.IntSlots > 127 {
		return fmt.Errorf("int-slots wants 1..127 slots, got %d", s.IntSlots)
	}
	if len(s.Secret) != 0 && len(s.Secret) != 16 {
		return fmt.Errorf("secret must be 16 bytes (32 hex chars), got %d", len(s.Secret))
	}
	if s.Speaker && s.SpeakerRefresh <= 0 {
		return fmt.Errorf("speaker refresh must be positive, got %v", s.SpeakerRefresh)
	}
	if s.PITTTL < 0 {
		return fmt.Errorf("pit ttl must not be negative, got %v", s.PITTTL)
	}
	if s.SpeakerHold < 0 {
		return fmt.Errorf("speaker hold must not be negative, got %v", s.SpeakerHold)
	}
	for _, t := range []struct {
		key    string
		width  int
		routes []Route
	}{{"route32", 4, s.Routes32}, {"route128", 16, s.Routes128}, {"name", 4, s.Names}} {
		for _, r := range t.routes {
			if len(r.Prefix) != t.width || r.Len < 0 || r.Len > 8*t.width {
				return fmt.Errorf("%s %x/%d: want a %d-byte prefix and a length in [0,%d]", t.key, r.Prefix, r.Len, t.width, 8*t.width)
			}
			if r.Port < 0 && r.Port != LocalPort {
				return fmt.Errorf("%s %x/%d: bad port %d", t.key, r.Prefix, r.Len, r.Port)
			}
		}
	}
	return nil
}

// ParseRoute reads one route from its two textual halves — "PREFIX/LEN" and
// a port number or "local" — the form both parsers reduce their syntax to
// (diprouter "PREFIX/LEN=PORT", topo "PREFIX/LEN PORT"). bits is 32 or 128:
// 32-bit prefixes are dotted-quad or hex, 128-bit ones hex (right-padded);
// a leading "0x" is optional.
func ParseRoute(bits int, prefixLen, target string) (Route, error) {
	prefix, lenStr, ok := strings.Cut(prefixLen, "/")
	if !ok {
		return Route{}, fmt.Errorf("prefix %q needs /len", prefixLen)
	}
	r := Route{Port: LocalPort}
	var err error
	if r.Len, err = strconv.Atoi(lenStr); err != nil || r.Len < 0 || r.Len > bits {
		return Route{}, fmt.Errorf("prefix length %q out of [0,%d]", lenStr, bits)
	}
	if target != "local" {
		if r.Port, err = strconv.Atoi(target); err != nil || r.Port < 0 {
			return Route{}, fmt.Errorf("port %q: want a port number or \"local\"", target)
		}
	}
	if bits == 32 {
		v, err := Parse32(prefix)
		if err != nil {
			return Route{}, err
		}
		r.Prefix = binary.BigEndian.AppendUint32(nil, v)
		return r, nil
	}
	key, err := hex.DecodeString(strings.TrimPrefix(prefix, "0x"))
	if err != nil {
		return Route{}, err
	}
	if len(key) > 16 {
		return Route{}, fmt.Errorf("prefix %d bytes, max 16", len(key))
	}
	r.Prefix = append(key, make([]byte, 16-len(key))...)
	return r, nil
}

// Parse32 reads a 32-bit value written as a dotted quad or as hex (leading
// "0x" optional): an address, or a content-name ID.
func Parse32(s string) (uint32, error) {
	if a, err := netip.ParseAddr(s); err == nil && a.Is4() {
		b := a.As4()
		return binary.BigEndian.Uint32(b[:]), nil
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 32)
	return uint32(v), err
}

// Package guard implements the router's ingress protection layer: traffic
// classification, token-bucket admission control, and the poison-packet
// quarantine. It sits between raw packet arrival (Ingress.Submit) and the
// forwarding pipeline (HandlePacket), so overload and hostile input are
// policed before they can consume worker time or shared table state —
// policing and isolation as first-class dataplane stages, the way NFV
// forwarders treat them, rather than afterthoughts.
//
// Everything is driven by the node's injected clock (ns on its timeline),
// so the same limiters run deterministically under the netsim virtual clock
// and on wall time in a live deployment.
package guard

import (
	"sync"
	"sync/atomic"
	"time"

	"dip/internal/core"
)

// Class is an admission priority class. Two classes keep the policy
// legible: control traffic that keeps the network converging is protected,
// bulk data sheds first under pressure.
type Class uint8

const (
	// ClassBulk is ordinary data-plane traffic. It fills the low-priority
	// queue and is the first thing shed under overload.
	ClassBulk Class = iota
	// ClassControl is control/signalling traffic (FN-unsupported
	// notifications, route exchange, DIP-in-IP). It fills the high-priority
	// queue and is served before any bulk packet.
	ClassControl
	numClasses
)

// NumClasses is the count of distinct classes, for counter arrays.
const NumClasses = int(numClasses)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassBulk:
		return "bulk"
	case ClassControl:
		return "control"
	}
	return "class(?)"
}

// Control next-header / protocol numbers recognized by the default
// classifier. These mirror profiles.NHFNUnsupported and ip.ProtoDIP,
// restated here as raw bytes so classification needs no parsing and no
// package dependencies.
const (
	nhFNUnsupported = 0xFE
	protoDIP        = 0xFD
	nhRouteExchange = 0xFC
	dipVersion      = 1
	ipv4Version     = 4
)

// Classify reports the admission class of a raw packet without a full
// parse: DIP packets whose next header carries FN-unsupported signalling or
// tunnel control, and IPv4 packets carrying DIP probes/tunnels, are
// control; everything else — including garbage — is bulk. Malformed bytes
// must never be promoted: the cheap path for an attacker would otherwise be
// a forged control byte, so the check is deliberately narrow.
func Classify(pkt []byte) Class {
	if len(pkt) < 2 {
		return ClassBulk
	}
	switch pkt[0] {
	case dipVersion:
		if pkt[1] == nhFNUnsupported || pkt[1] == protoDIP || pkt[1] == nhRouteExchange {
			return ClassControl
		}
	default:
		// Outer IPv4 (tunnel overlay): protocol byte at offset 9.
		if pkt[0]>>4 == ipv4Version && len(pkt) >= 20 {
			if p := pkt[9]; p == nhFNUnsupported || p == protoDIP {
				return ClassControl
			}
		}
	}
	return ClassBulk
}

// Rate is a token-bucket configuration: a sustained rate in packets per
// second and a burst allowance. The zero Rate means "unlimited".
type Rate struct {
	PerSec float64
	Burst  float64
}

// unlimited reports whether the rate imposes no limit.
func (r Rate) unlimited() bool { return r.PerSec <= 0 }

// TokenBucket is a deterministic token-bucket limiter. Time is supplied by
// the caller on every Allow, so the bucket itself holds no clock and runs
// identically under virtual and wall time.
type TokenBucket struct {
	rate   Rate
	mu     sync.Mutex
	tokens float64
	last   int64 // ns
}

// NewTokenBucket returns a full bucket.
func NewTokenBucket(rate Rate) *TokenBucket {
	return &TokenBucket{rate: rate, tokens: rate.Burst}
}

// Allow takes one token at time now, reporting false when the bucket is
// empty. now must be monotone non-decreasing across calls (a regression is
// treated as "no time passed").
func (b *TokenBucket) Allow(now int64) bool {
	if b.rate.unlimited() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if now > b.last {
		b.tokens += time.Duration(now-b.last).Seconds() * b.rate.PerSec
		if b.tokens > b.rate.Burst {
			b.tokens = b.rate.Burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// AllowN refills the bucket once at time now and takes up to n tokens,
// returning how many were granted (all n for an unlimited bucket). One
// lock round and one refill amortize a whole burst's admission; granting
// follows the same whole-token rule as Allow, so AllowN(now, n) admits
// exactly as many packets as n consecutive Allow(now) calls would.
func (b *TokenBucket) AllowN(now int64, n int) int {
	if n <= 0 {
		return 0
	}
	if b.rate.unlimited() {
		return n
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if now > b.last {
		b.tokens += time.Duration(now-b.last).Seconds() * b.rate.PerSec
		if b.tokens > b.rate.Burst {
			b.tokens = b.rate.Burst
		}
		b.last = now
	}
	grant := int(b.tokens)
	if grant > n {
		grant = n
	}
	if grant > 0 {
		b.tokens -= float64(grant)
	}
	return grant
}

// Policy configures admission control. Zero-valued rates are unlimited, so
// the zero Policy admits everything.
type Policy struct {
	// PerPort limits each ingress port independently — the per-source
	// policing that keeps one flooding neighbor from starving the rest.
	PerPort Rate
	// PerClass limits each traffic class across all ports.
	PerClass [NumClasses]Rate
}

// Admission is the bucket state for one router's ingress. Safe for
// concurrent use.
type Admission struct {
	policy Policy
	clock  func() int64

	mu    sync.Mutex
	ports map[int]*TokenBucket

	class [NumClasses]*TokenBucket

	rejected      atomic.Int64
	portRejected  sync.Map // int → *atomic.Int64
	classRejected [NumClasses]atomic.Int64
}

// NewAdmission builds the admission state. clock is the node's clock, in
// ns (a simulation's virtual clock); nil is core.Now.
func NewAdmission(policy Policy, clock func() int64) *Admission {
	if clock == nil {
		clock = core.Now
	}
	a := &Admission{policy: policy, clock: clock, ports: map[int]*TokenBucket{}}
	for c := 0; c < NumClasses; c++ {
		a.class[c] = NewTokenBucket(policy.PerClass[c])
	}
	return a
}

// Admit decides whether a packet arriving on inPort with class c may enter
// the queue, charging one token from the port bucket and the class bucket.
// A rejection is counted against both the port and the class.
func (a *Admission) Admit(inPort int, c Class) bool {
	now := a.clock()
	if !a.portBucket(inPort).Allow(now) || !a.class[c].Allow(now) {
		a.rejected.Add(1)
		a.classRejected[c].Add(1)
		ctr, _ := a.portRejected.LoadOrStore(inPort, new(atomic.Int64))
		ctr.(*atomic.Int64).Add(1)
		return false
	}
	return true
}

// AdmitBurst admits up to n same-class packets arriving on inPort with a
// single clock read and one refill per bucket, returning how many were
// admitted. It is the burst-path equivalent of n consecutive Admit calls:
// the port bucket is charged first and the class bucket only sees what
// the port granted, mirroring Admit's short-circuit order (a packet the
// port denies never touches the class bucket, while one the port grants
// and the class denies has spent its port token, exactly as in Admit).
// Every rejection is counted against both the port and the class.
func (a *Admission) AdmitBurst(inPort int, c Class, n int) int {
	if n <= 0 {
		return 0
	}
	now := a.clock()
	grant := a.portBucket(inPort).AllowN(now, n)
	grant = a.class[c].AllowN(now, grant)
	if rej := n - grant; rej > 0 {
		a.rejected.Add(int64(rej))
		a.classRejected[c].Add(int64(rej))
		ctr, _ := a.portRejected.LoadOrStore(inPort, new(atomic.Int64))
		ctr.(*atomic.Int64).Add(int64(rej))
	}
	return grant
}

func (a *Admission) portBucket(inPort int) *TokenBucket {
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.ports[inPort]
	if !ok {
		b = NewTokenBucket(a.policy.PerPort)
		a.ports[inPort] = b
	}
	return b
}

// RejectedOnPort returns the rejection count charged to one ingress port.
func (a *Admission) RejectedOnPort(inPort int) int64 {
	if ctr, ok := a.portRejected.Load(inPort); ok {
		return ctr.(*atomic.Int64).Load()
	}
	return 0
}

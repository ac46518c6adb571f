// Package extops demonstrates DIP's extensibility thesis: new network-layer
// functions deployed by registering an operation module and composing it
// into packets — no new protocol stack, no hardware replacement ("the
// network providers can now support new services by only upgrading FNs",
// paper §5).
//
// Two extension operations are provided, both taken from systems the paper
// itself cites as motivation:
//
//   - F_cc (key 13): NetFence-style in-network congestion policing — "a
//     slim customized header between L3 and L4 to emulate congestion
//     control (AIMD) inside the network" whose feedback is "the
//     MAC-protected congestion control tag" (§1, §2.1). Routers stamp
//     rate feedback into the packet under a MAC; the receiver reflects it
//     to the sender, which applies AIMD. Hosts cannot forge "no
//     congestion" because the tag is keyed.
//
//   - F_tel (key 14): INT-style in-band telemetry (§5 "efficient network
//     telemetry"): each hop appends its ID and a timestamp into
//     pre-allocated slots in the FN-locations region, giving the receiver
//     the packet's hop-by-hop latency record.
package extops

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"dip/internal/bitfield"
	"dip/internal/core"
	"dip/internal/crypto2em"
)

// Extension operation keys (outside the paper's Table 1 range).
const (
	// KeyCC is F_cc, the NetFence-style congestion-policing operation.
	KeyCC core.Key = 13
	// KeyTel is F_tel, the in-band telemetry operation.
	KeyTel core.Key = 14
)

// Congestion feedback actions carried in the F_cc tag.
const (
	// ActionIncrease: no congestion observed; the sender may add to its rate.
	ActionIncrease = 0
	// ActionDecrease: congestion observed; the sender must halve its rate.
	ActionDecrease = 1
)

// CC tag layout within the operand, byte offsets. The operand is
// CCOperandBits long: flow ID, feedback action, the policing router's rate
// estimate (for diagnostics), and the MAC protecting all of it.
const (
	ccFlowOff   = 0  // 4 B
	ccActionOff = 4  // 1 B
	ccRateOff   = 8  // 4 B, bytes/sec estimate
	ccMACOff    = 16 // 16 B
	ccSize      = 32
	// CCOperandBits is the F_cc operand width.
	CCOperandBits = ccSize * 8
)

// CCConfig tunes the policing module.
type CCConfig struct {
	// CapacityBps is the per-flow fair-share threshold: flows estimated
	// above it receive ActionDecrease.
	CapacityBps float64
	// HalfLife is the EWMA half-life for rate estimation.
	HalfLife time.Duration
	// Key authenticates feedback tags (shared with receivers, as
	// NetFence shares keys between routers and trusted hosts).
	Key [16]byte
	// Now is the node's clock, in ns (tests inject a fake one; nil is
	// core.Now).
	Now func() int64
}

// CC is the F_cc router module: a per-flow rate estimator plus the
// MAC-stamped AIMD feedback writer. Safe for concurrent use.
type CC struct {
	cfg   CCConfig
	mu    sync.Mutex
	flows map[uint32]*flowState
}

type flowState struct {
	rate float64 // bytes/sec EWMA
	last int64   // ns on the module's clock
}

// NewCC builds the module.
func NewCC(cfg CCConfig) *CC {
	if cfg.Now == nil {
		cfg.Now = core.Now
	}
	if cfg.HalfLife <= 0 {
		cfg.HalfLife = 100 * time.Millisecond
	}
	return &CC{cfg: cfg, flows: make(map[uint32]*flowState)}
}

// Key implements core.Operation.
func (o *CC) Key() core.Key { return KeyCC }

// Name implements core.Operation.
func (o *CC) Name() string { return "F_cc" }

// Execute implements core.Operation: estimate the flow's rate from this
// packet's size, choose the AIMD action, and stamp the MAC-protected tag.
func (o *CC) Execute(ctx *core.ExecContext, loc, bits uint) error {
	if bits != CCOperandBits {
		return fmt.Errorf("extops: F_cc operand is %d bits, want %d", bits, CCOperandBits)
	}
	tag, ok := bitfield.View(ctx.View.Locations(), loc, bits)
	if !ok {
		return fmt.Errorf("extops: F_cc operand not byte-aligned")
	}
	flow := binary.BigEndian.Uint32(tag[ccFlowOff:])
	rate := o.observe(flow, len(ctx.View.Packet()))

	action := byte(ActionIncrease)
	if rate > o.cfg.CapacityBps {
		action = ActionDecrease
	}
	// Never upgrade an existing Decrease from an upstream hop: congestion
	// anywhere on the path must reach the sender.
	if tag[ccActionOff] != ActionDecrease {
		tag[ccActionOff] = action
	}
	binary.BigEndian.PutUint32(tag[ccRateOff:], uint32(rate))
	StampCC(&o.cfg.Key, tag)
	return nil
}

// observe updates the flow's EWMA rate estimate with one packet.
func (o *CC) observe(flow uint32, bytes int) float64 {
	now := o.cfg.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	st, ok := o.flows[flow]
	if !ok {
		st = &flowState{last: now}
		o.flows[flow] = st
	}
	dt := time.Duration(now - st.last).Seconds()
	st.last = now
	if dt <= 0 {
		// Same-instant packets accumulate into the estimate directly,
		// scaled by the half-life window.
		st.rate += float64(bytes) / o.cfg.HalfLife.Seconds()
		return st.rate
	}
	decay := 1.0
	hl := o.cfg.HalfLife.Seconds()
	for t := dt; t > 0; t -= hl {
		decay *= 0.5
		if decay < 1e-9 {
			decay = 0
			break
		}
	}
	inst := float64(bytes) / dt
	st.rate = st.rate*decay + inst*(1-decay)
	return st.rate
}

// StampCC writes the authentication MAC over the tag's first 16 bytes.
func StampCC(key *[16]byte, tag []byte) {
	c := crypto2em.FromMaster(key)
	c.SumInto(tag[ccMACOff:ccMACOff+16], tag[:ccMACOff])
}

// VerifyCC checks the tag's MAC and returns the feedback it carries.
func VerifyCC(key *[16]byte, tag []byte) (flow uint32, action byte, rate uint32, ok bool) {
	if len(tag) < ccSize {
		return 0, 0, 0, false
	}
	var want [16]byte
	c := crypto2em.FromMaster(key)
	c.SumInto(want[:], tag[:ccMACOff])
	if subtle.ConstantTimeCompare(want[:], tag[ccMACOff:ccMACOff+16]) != 1 {
		return 0, 0, 0, false
	}
	return binary.BigEndian.Uint32(tag[ccFlowOff:]), tag[ccActionOff],
		binary.BigEndian.Uint32(tag[ccRateOff:]), true
}

// NewCCTag returns a fresh zeroed tag region for flow, ready to embed in a
// packet's FN locations.
func NewCCTag(flow uint32) []byte {
	tag := make([]byte, ccSize)
	binary.BigEndian.PutUint32(tag[ccFlowOff:], flow)
	return tag
}

// AIMD is the sender-side rate controller reacting to verified feedback.
type AIMD struct {
	// RateBps is the current sending rate.
	RateBps float64
	// Step is the additive increase per feedback (bytes/sec).
	Step float64
	// Floor is the minimum rate after decreases.
	Floor float64
}

// Apply adjusts the rate for one feedback action.
func (a *AIMD) Apply(action byte) {
	if action == ActionDecrease {
		a.RateBps /= 2
		if a.RateBps < a.Floor {
			a.RateBps = a.Floor
		}
		return
	}
	a.RateBps += a.Step
}

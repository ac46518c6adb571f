package extops

import (
	"encoding/binary"
	"fmt"

	"dip/internal/bitfield"
	"dip/internal/core"
)

// F_tel operand layout: a one-byte slot counter followed by fixed-size
// slots. The host allocates as many slots as the expected path length; hops
// beyond capacity set the overflow bit instead of corrupting neighbours —
// standard INT behaviour.
//
// Each slot is 24 bytes, big-endian:
//
//	[0:4)   hop ID
//	[4:8)   wall timestamp, µs (truncated to 32 bits)
//	[8:12)  per-hop latency, ns (admission → F_tel execution; saturating)
//	[12:16) FIB snapshot epoch at stamping time
//	[16:18) ingress port
//	[18:20) egress port (TelPortNone when not yet chosen)
//	[20:22) queue depth at admission (saturating)
//	[22)    flags (TelFlagCongested)
//	[23)    reserved, zero
const (
	telCountOff = 0
	telSlotsOff = 4
	// TelSlotSize is one hop record.
	TelSlotSize = 24
	// telOverflowBit marks a path longer than the slot capacity.
	telOverflowBit = 0x80

	// Field offsets inside one slot.
	telHopIDOff = 0
	telTsOff    = 4
	telLatOff   = 8
	telEpochOff = 12
	telInOff    = 16
	telEgrOff   = 18
	telDepthOff = 20
	telFlagsOff = 22
)

// TelFlagCongested is set in a hop record's flags byte when the queue depth
// at admission met the hop's congestion threshold.
const TelFlagCongested = 0x01

// TelPortNone is the on-wire port value meaning "not known at this hop"
// (F_tel ran before any match operation chose an egress, or the ingress
// port was unset).
const TelPortNone = 0xFFFF

// telMaxSlots is the largest slot count the 7-bit counter can carry.
const telMaxSlots = telOverflowBit - 1

// TelOperandBits returns the F_tel operand width for a given slot capacity.
func TelOperandBits(slots int) uint16 {
	return uint16((telSlotsOff + slots*TelSlotSize) * 8)
}

// TelConfig supplies a Tel module's identity and measurement providers.
// Every provider is optional; a missing one leaves its field zero in the
// stamped record. Providers run on the forwarding hot path and must not
// allocate or block.
type TelConfig struct {
	// HopID identifies this hop in the records it stamps.
	HopID uint32
	// Now is the node's clock, in ns (nil is core.Now). One read per stamp
	// gives both the record's wall µs and, against the ExecContext.AdmittedAt
	// the serving layer stamped on the same clock, the hop's
	// admission→execution latency. On the default clock a timed packet
	// reuses the engine's reading (ExecContext.MonoNow) and costs no read of
	// its own. Simulations inject the virtual clock, so timestamp deltas
	// equal simulated transit.
	Now func() int64
	// QueueDepth reports local queue occupancy, used when the context
	// carries no burst-admission depth (packet-at-a-time entry points,
	// or fabric depth sources like in-flight link counts).
	QueueDepth func() int
	// Epoch reads the FIB snapshot epoch to pin which forwarding state
	// handled the packet (see fib.Table.Epoch).
	Epoch func() uint32
	// CongestAt is the queue depth at which the congestion flag is set
	// (default 64; negative disables).
	CongestAt int
}

// Tel is the F_tel router module: append this hop's record in place.
type Tel struct {
	cfg TelConfig
}

// NewTel builds the module from its provider configuration.
func NewTel(cfg TelConfig) *Tel {
	if cfg.CongestAt == 0 {
		cfg.CongestAt = 64
	}
	return &Tel{cfg: cfg}
}

// now reads the stamp instant: the injected clock, else the engine's
// reading for this dispatch when the packet is timed, else core.Now.
func (o *Tel) now(ctx *core.ExecContext) int64 {
	switch {
	case o.cfg.Now != nil:
		return o.cfg.Now()
	case ctx.MonoNow != 0:
		return ctx.MonoNow
	}
	return core.Now()
}

// Key implements core.Operation.
func (o *Tel) Key() core.Key { return KeyTel }

// Name implements core.Operation.
func (o *Tel) Name() string { return "F_tel" }

// Execute implements core.Operation.
func (o *Tel) Execute(ctx *core.ExecContext, loc, bits uint) error {
	if bits < (telSlotsOff+TelSlotSize)*8 || bits%8 != 0 {
		return fmt.Errorf("extops: F_tel operand %d bits too small", bits)
	}
	region, ok := bitfield.View(ctx.View.Locations(), loc, bits)
	if !ok {
		return fmt.Errorf("extops: F_tel operand not byte-aligned")
	}
	count := int(region[telCountOff] &^ telOverflowBit)
	capacity := (len(region) - telSlotsOff) / TelSlotSize
	if capacity > telMaxSlots {
		capacity = telMaxSlots
	}
	if count >= capacity {
		region[telCountOff] |= telOverflowBit
		return nil
	}
	slot := region[telSlotsOff+count*TelSlotSize : telSlotsOff+(count+1)*TelSlotSize]

	now := o.now(ctx)
	var latNs int64
	if ctx.AdmittedAt != 0 {
		latNs = now - ctx.AdmittedAt
	}
	depth := int(ctx.QueueDepth)
	if o.cfg.QueueDepth != nil {
		if d := o.cfg.QueueDepth(); d > depth {
			depth = d
		}
	}
	var epoch uint32
	if o.cfg.Epoch != nil {
		epoch = o.cfg.Epoch()
	}
	egress := uint16(TelPortNone)
	if ctx.NEgr > 0 && ctx.Egress[0] >= 0 && ctx.Egress[0] < TelPortNone {
		egress = uint16(ctx.Egress[0])
	}
	ingress := uint16(TelPortNone)
	if ctx.InPort >= 0 && ctx.InPort < TelPortNone {
		ingress = uint16(ctx.InPort)
	}
	var flags byte
	if o.cfg.CongestAt >= 0 && depth >= o.cfg.CongestAt {
		flags |= TelFlagCongested
	}

	binary.BigEndian.PutUint32(slot[telHopIDOff:], o.cfg.HopID)
	binary.BigEndian.PutUint32(slot[telTsOff:], uint32(now/1000))
	binary.BigEndian.PutUint32(slot[telLatOff:], satU32(latNs))
	binary.BigEndian.PutUint32(slot[telEpochOff:], epoch)
	binary.BigEndian.PutUint16(slot[telInOff:], ingress)
	binary.BigEndian.PutUint16(slot[telEgrOff:], egress)
	binary.BigEndian.PutUint16(slot[telDepthOff:], satU16(depth))
	slot[telFlagsOff] = flags
	slot[telFlagsOff+1] = 0
	region[telCountOff] = region[telCountOff]&telOverflowBit | byte(count+1)
	return nil
}

func satU32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > 0xFFFFFFFF {
		return 0xFFFFFFFF
	}
	return uint32(v)
}

func satU16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > 0xFFFF {
		return 0xFFFF
	}
	return uint16(v)
}

// HopRecord is one decoded telemetry slot.
type HopRecord struct {
	HopID       uint32
	TimestampUs uint32
	// LatencyNs is the hop's admission→F_tel latency in ns (saturating at
	// ~4.29 s); 0 means the packet reached F_tel without an admission stamp.
	LatencyNs uint32
	// Epoch is the hop's FIB snapshot epoch at stamping time.
	Epoch uint32
	// Ingress and Egress are port indexes (TelPortNone = unknown).
	Ingress uint16
	Egress  uint16
	// QueueDepth is the occupancy behind the packet at admission.
	QueueDepth uint16
	Flags      byte
}

// Congested reports whether the hop flagged queue congestion.
func (r HopRecord) Congested() bool { return r.Flags&TelFlagCongested != 0 }

// DecodeTel reads the telemetry region at the receiver. It rejects regions
// too small to hold the counter, counts that overrun the region's slot
// capacity, and regions whose declared slots would be truncated — a
// malformed counter never causes an out-of-range read.
func DecodeTel(region []byte) (records []HopRecord, overflowed bool, err error) {
	if len(region) < telSlotsOff {
		return nil, false, fmt.Errorf("extops: telemetry region %d bytes too small", len(region))
	}
	count := int(region[telCountOff] &^ telOverflowBit)
	overflowed = region[telCountOff]&telOverflowBit != 0
	capacity := (len(region) - telSlotsOff) / TelSlotSize
	if count > capacity {
		return nil, false, fmt.Errorf("extops: telemetry count %d exceeds capacity %d", count, capacity)
	}
	for i := 0; i < count; i++ {
		slot := region[telSlotsOff+i*TelSlotSize:]
		records = append(records, HopRecord{
			HopID:       binary.BigEndian.Uint32(slot[telHopIDOff:]),
			TimestampUs: binary.BigEndian.Uint32(slot[telTsOff:]),
			LatencyNs:   binary.BigEndian.Uint32(slot[telLatOff:]),
			Epoch:       binary.BigEndian.Uint32(slot[telEpochOff:]),
			Ingress:     binary.BigEndian.Uint16(slot[telInOff:]),
			Egress:      binary.BigEndian.Uint16(slot[telEgrOff:]),
			QueueDepth:  binary.BigEndian.Uint16(slot[telDepthOff:]),
			Flags:       slot[telFlagsOff],
		})
	}
	return records, overflowed, nil
}

// NewTelRegion allocates a zeroed telemetry region with the given slot
// capacity, ready to embed in FN locations.
func NewTelRegion(slots int) []byte {
	return make([]byte, telSlotsOff+slots*TelSlotSize)
}

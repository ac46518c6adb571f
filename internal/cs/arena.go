// Slot arena: the cold tier's on-disk backing. A fixed number of
// fixed-size slots in one plain file, addressed by pread/pwrite at
// slot-stride offsets — the layout ndn-dpdk's disk content store uses,
// minus SPDK: no mmap growth surprises, no per-object file, and a crashed
// process leaves nothing to fsck because the in-RAM index is authoritative
// and the file is rebuilt cold on restart.
//
// Every slot carries a small header (magic, key hash, payload length,
// CRC-32C checksum) written in the same pwrite as the payload. Reads
// re-verify all four fields, so a torn write, a recycled slot, or plain
// bit rot surfaces as a verification error — never as poisoned content
// handed to a consumer.
package cs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"sync"
)

// SlotHeaderSize is the on-disk size of a slot header in bytes.
const SlotHeaderSize = 20

// slotMagic marks a written slot; a freed or never-written slot fails the
// magic check before any other field is trusted.
const slotMagic = 0x44435331 // "DCS1"

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrSlotCorrupt reports a slot whose header or payload failed
// verification (bad magic, wrong key hash, impossible length, or checksum
// mismatch).
var ErrSlotCorrupt = errors.New("cs: cold slot failed verification")

// SlotHeader is the per-slot metadata stored ahead of the payload.
type SlotHeader struct {
	// KeyHash is the 64-bit hash of the content key the slot holds; reads
	// check it so an index pointing at a recycled slot cannot return the
	// wrong object.
	KeyHash uint64
	// Length is the payload byte count (≤ the arena's slot size).
	Length uint32
	// Checksum is the CRC-32C of the payload.
	Checksum uint32
}

// EncodeSlotHeader serializes h into dst[:SlotHeaderSize].
func EncodeSlotHeader(dst []byte, h SlotHeader) {
	binary.BigEndian.PutUint32(dst[0:], slotMagic)
	binary.BigEndian.PutUint64(dst[4:], h.KeyHash)
	binary.BigEndian.PutUint32(dst[12:], h.Length)
	binary.BigEndian.PutUint32(dst[16:], h.Checksum)
}

// DecodeSlotHeader parses b[:SlotHeaderSize], rejecting anything that does
// not carry the slot magic.
func DecodeSlotHeader(b []byte) (SlotHeader, error) {
	if len(b) < SlotHeaderSize {
		return SlotHeader{}, fmt.Errorf("%w: header truncated at %d bytes", ErrSlotCorrupt, len(b))
	}
	if binary.BigEndian.Uint32(b[0:]) != slotMagic {
		return SlotHeader{}, fmt.Errorf("%w: bad magic", ErrSlotCorrupt)
	}
	return SlotHeader{
		KeyHash:  binary.BigEndian.Uint64(b[4:]),
		Length:   binary.BigEndian.Uint32(b[12:]),
		Checksum: binary.BigEndian.Uint32(b[16:]),
	}, nil
}

// arena is the file-backed slot store. Allocation state lives in a free
// bitmap guarded by one mutex; slot I/O itself runs lock-free (pread and
// pwrite carry their own offsets), so concurrent readers never serialize
// on the allocator.
type arena struct {
	f        *os.File
	slotSize int // payload capacity per slot
	stride   int64
	nslots   int

	mu     sync.Mutex
	bitmap []uint64 // 1 = used
	used   int
}

// newArena opens (truncating) a slot arena of slots payload slots of
// slotSize bytes each at path. An empty path creates an anonymous temp
// file — unlinked immediately after opening, so the space is reclaimed the
// moment the process exits, however it exits.
func newArena(path string, slots, slotSize int) (*arena, error) {
	if slots < 1 || slotSize < 1 {
		return nil, fmt.Errorf("cs: arena wants positive slots and slot size, got %d×%d", slots, slotSize)
	}
	var f *os.File
	var err error
	if path == "" {
		f, err = os.CreateTemp("", "dip-cs-arena-*")
		if err == nil {
			// Anonymous backing: the name disappears now, the file lives
			// until the descriptor closes.
			os.Remove(f.Name())
		}
	} else {
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	}
	if err != nil {
		return nil, fmt.Errorf("cs: arena backing file: %w", err)
	}
	return &arena{
		f:        f,
		slotSize: slotSize,
		stride:   int64(SlotHeaderSize + slotSize),
		nslots:   slots,
		bitmap:   make([]uint64, (slots+63)/64),
	}, nil
}

// SlotSize returns the payload capacity of one slot.
func (a *arena) SlotSize() int { return a.slotSize }

// Slots returns the arena's slot count.
func (a *arena) Slots() int { return a.nslots }

// Used returns the number of allocated slots.
func (a *arena) Used() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Alloc reserves a free slot, reporting ok=false when the arena is full.
func (a *arena) Alloc() (slot int, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for w, word := range a.bitmap {
		if word == ^uint64(0) {
			continue
		}
		b := bits.TrailingZeros64(^word)
		slot = w*64 + b
		if slot >= a.nslots {
			return 0, false // only tail-padding bits remain
		}
		a.bitmap[w] = word | 1<<uint(b)
		a.used++
		return slot, true
	}
	return 0, false
}

// Free releases a slot back to the allocator.
func (a *arena) Free(slot int) {
	if slot < 0 || slot >= a.nslots {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.bitmap[slot/64]&(1<<uint(slot%64)) != 0 {
		a.bitmap[slot/64] &^= 1 << uint(slot%64)
		a.used--
	}
}

// WriteSlot stores payload (≤ SlotSize bytes) into slot under keyHash,
// header and payload in one pwrite.
func (a *arena) WriteSlot(slot int, keyHash uint64, payload []byte) error {
	if len(payload) > a.slotSize {
		return fmt.Errorf("cs: payload %d bytes exceeds slot size %d", len(payload), a.slotSize)
	}
	buf := make([]byte, SlotHeaderSize+len(payload))
	EncodeSlotHeader(buf, SlotHeader{
		KeyHash:  keyHash,
		Length:   uint32(len(payload)),
		Checksum: crc32.Checksum(payload, castagnoli),
	})
	copy(buf[SlotHeaderSize:], payload)
	_, err := a.f.WriteAt(buf, int64(slot)*a.stride)
	return err
}

// ReadSlot loads and fully verifies slot, which must have been written
// under keyHash. The payload is appended to dst (pass nil to allocate).
// Any mismatch — magic, key hash, length, checksum — returns
// ErrSlotCorrupt; ReadSlot never panics on hostile bytes.
func (a *arena) ReadSlot(dst []byte, slot int, keyHash uint64) ([]byte, error) {
	if slot < 0 || slot >= a.nslots {
		return dst, fmt.Errorf("%w: slot %d out of range", ErrSlotCorrupt, slot)
	}
	buf := make([]byte, a.stride)
	n, err := a.f.ReadAt(buf, int64(slot)*a.stride)
	if err != nil && n < SlotHeaderSize {
		return dst, fmt.Errorf("cs: cold read: %w", err)
	}
	h, err := DecodeSlotHeader(buf[:n])
	if err != nil {
		return dst, err
	}
	if h.KeyHash != keyHash {
		return dst, fmt.Errorf("%w: key hash mismatch", ErrSlotCorrupt)
	}
	if int(h.Length) > a.slotSize || SlotHeaderSize+int(h.Length) > n {
		return dst, fmt.Errorf("%w: impossible length %d", ErrSlotCorrupt, h.Length)
	}
	payload := buf[SlotHeaderSize : SlotHeaderSize+int(h.Length)]
	if crc32.Checksum(payload, castagnoli) != h.Checksum {
		return dst, fmt.Errorf("%w: checksum mismatch", ErrSlotCorrupt)
	}
	return append(dst, payload...), nil
}

// Close releases the backing file.
func (a *arena) Close() error { return a.f.Close() }

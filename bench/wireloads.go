package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"dip"
	"dip/internal/workload"
)

// ---- wire-ip32 -----------------------------------------------------------

// ip32Load is bare DIP-32 forwarding at the smallest size: keySpace
// pre-built packets whose destinations are uniform over the routed /24
// prefixes, each with a 16-byte payload the generator stamps with the key,
// the sequence number and the due time.
type ip32Load struct {
	prefixes []uint32 // routed /24 network addresses
	pkts     [][]byte
	payOff   int
}

const ip32Payload = 16

func newIP32Load(seed int64, routes int) (*ip32Load, error) {
	rng := rand.New(rand.NewSource(seed))
	l := &ip32Load{}
	seen := map[uint32]bool{}
	for len(l.prefixes) < routes {
		// 10.x.y.0/24 with x.y drawn from the seed, so the FIB is a sparse
		// sample of a /8 rather than one dense block.
		p := uint32(10)<<24 | uint32(rng.Intn(1<<16))<<8
		if !seen[p] {
			seen[p] = true
			l.prefixes = append(l.prefixes, p)
		}
	}
	l.pkts = make([][]byte, keySpace)
	for k := range l.pkts {
		var src, dst [4]byte
		rng.Read(src[:])
		binary.BigEndian.PutUint32(dst[:], l.prefixes[rng.Intn(routes)]|uint32(rng.Intn(256)))
		pkt, err := dip.BuildPacket(dip.IPv4Profile(src, dst), make([]byte, ip32Payload))
		if err != nil {
			return nil, err
		}
		l.pkts[k] = pkt
	}
	l.payOff = len(l.pkts[0]) - ip32Payload
	return l, nil
}

// routerArgs are the diprouter flags of this workload: defaults (inline
// handling) plus the routes, all towards port 1.
func (l *ip32Load) routerArgs() []string {
	var args []string
	for _, p := range l.prefixes {
		args = append(args, "-route32", fmt.Sprintf("%d.%d.%d.0/24=1", p>>24, p>>16&255, p>>8&255))
	}
	return args
}

// sequentialKeys asks for every key in turn: the loads whose keys are
// pre-built packets have already randomised what each key means.
func sequentialKeys() []uint32 {
	ks := make([]uint32, keySpace)
	for i := range ks {
		ks[i] = uint32(i)
	}
	return ks
}

func (l *ip32Load) request(k, seq uint32, due int64) []byte {
	p := l.pkts[k]
	binary.LittleEndian.PutUint32(p[l.payOff:], k)
	binary.LittleEndian.PutUint32(p[l.payOff+4:], seq)
	binary.LittleEndian.PutUint64(p[l.payOff+8:], uint64(due))
	return p
}

func (l *ip32Load) polled() [2]bool { return [2]bool{false, true} }

func (l *ip32Load) onSock(s int, pkt []byte) (uint32, verdict, []byte) {
	if s != 1 || len(pkt) != len(l.pkts[0]) {
		return 0, stray, nil
	}
	k := binary.LittleEndian.Uint32(pkt[l.payOff:])
	if k >= keySpace {
		return 0, stray, nil
	}
	// What went in must come out on port 1's socket byte for byte, except
	// the hop limit, which the router decrements.
	want := l.pkts[k]
	if pkt[3] == want[3]-1 && bytes.Equal(pkt[:3], want[:3]) && bytes.Equal(pkt[4:], want[4:]) {
		return k, replyOK, nil
	}
	return k, replyBad, nil
}

// ---- wire-ndn-zipf -------------------------------------------------------

// ndnLoad is the stateful path: socket 0 is a consumer asking for content
// names with Zipf popularity, socket 1 a producer answering the interests
// the router forwards with ndnPayload bytes of data.
type ndnLoad struct {
	interest []byte // NDN interest, name patched per request
	fwd      []byte // the same interest as the router forwards it (hop − 1)
	data     []byte // producer reply: data header + payload
	want     []byte // data header as the consumer must receive it (hop − 1)
	nameOff  int
	block    []byte // payloads are windows into this seeded block
	names    []uint32
}

const (
	ndnPayload  = 1024
	ndnZipfS    = 1.1
	ndnRequests = 1 << 18 // length of the name sequence before it repeats
)

func newNDNLoad(seed int64, requests int) (*ndnLoad, error) {
	rng := rand.New(rand.NewSource(seed))
	l := &ndnLoad{block: make([]byte, keySpace+ndnPayload)}
	rng.Read(l.block)
	var err error
	if l.interest, err = dip.BuildPacket(dip.NDNInterestProfile(workload.NamePrefix), nil); err != nil {
		return nil, err
	}
	hdr, err := dip.BuildPacket(dip.NDNDataProfile(workload.NamePrefix), nil)
	if err != nil {
		return nil, err
	}
	l.nameOff = len(hdr) - 4
	l.fwd = append([]byte(nil), l.interest...)
	l.fwd[3]--
	l.want = append([]byte(nil), hdr...)
	l.want[3]--
	l.data = append(hdr, make([]byte, ndnPayload)...)
	zipf := rand.NewZipf(rng, ndnZipfS, 1, keySpace-1)
	l.names = make([]uint32, requests)
	for i := range l.names {
		l.names[i] = uint32(zipf.Uint64())
	}
	return l, nil
}

// routerArgs is the production shape: one guarded forwarder, a content
// store an eighth of the name population, the metrics listener, and one
// name route towards the producer on port 1.
func (l *ndnLoad) routerArgs(metricsAddr string) []string {
	return []string{
		"-workers", "1", "-cache", "8192", "-metrics-addr", metricsAddr,
		"-name", fmt.Sprintf("%#x/8=1", uint32(workload.NamePrefix)),
	}
}

func (l *ndnLoad) keys() []uint32 { return l.names }

// payload is the content the producer serves for key k.
func (l *ndnLoad) payload(k uint32) []byte {
	off := (k * 2654435761) >> 16 // Fibonacci hash: neighbouring names get distant windows
	return l.block[off : off+ndnPayload]
}

// dataFor builds the producer's answer for key k in the reply buffer.
func (l *ndnLoad) dataFor(k uint32) []byte {
	binary.BigEndian.PutUint32(l.data[l.nameOff:], workload.NamePrefix|k)
	copy(l.data[l.nameOff+4:], l.payload(k))
	return l.data
}

func (l *ndnLoad) request(k, _ uint32, _ int64) []byte {
	binary.BigEndian.PutUint32(l.interest[l.nameOff:], workload.NamePrefix|k)
	return l.interest
}

func (l *ndnLoad) polled() [2]bool { return [2]bool{true, true} }

// keyOf extracts the key from a packet shaped like tmpl (same length up to
// the name, same bytes before it).
func (l *ndnLoad) keyOf(pkt, tmpl []byte) (uint32, bool) {
	if len(pkt) < l.nameOff+4 || !bytes.Equal(pkt[:l.nameOff], tmpl[:l.nameOff]) {
		return 0, false
	}
	name := binary.BigEndian.Uint32(pkt[l.nameOff:])
	return name &^ workload.NamePrefix, name&^(keySpace-1) == workload.NamePrefix
}

func (l *ndnLoad) onSock(s int, pkt []byte) (uint32, verdict, []byte) {
	if s == 1 {
		// Producer side: only interests the consumer has in flight may
		// arrive, unchanged but for the hop limit.
		k, ok := l.keyOf(pkt, l.fwd)
		if !ok || len(pkt) != len(l.fwd) {
			return 0, stray, nil
		}
		return k, forward, l.dataFor(k)
	}
	// Consumer side: data for a name in flight, from the content store or
	// from the producer, with the payload that belongs to the name.
	k, ok := l.keyOf(pkt, l.want)
	if !ok {
		return 0, stray, nil
	}
	if len(pkt) == len(l.data) && bytes.Equal(pkt[l.nameOff+4:], l.payload(k)) {
		return k, replyOK, nil
	}
	return k, replyBad, nil
}

// ---- echo floor ----------------------------------------------------------

// echoLoad pings the bare echo child with datagrams the size of a wire-ip32
// packet; what comes back must be what was sent.
type echoLoad struct {
	pkts [][]byte
}

func newEchoLoad(size int) *echoLoad {
	l := &echoLoad{pkts: make([][]byte, keySpace)}
	for k := range l.pkts {
		l.pkts[k] = make([]byte, size)
		binary.LittleEndian.PutUint32(l.pkts[k], uint32(k))
	}
	return l
}

func (l *echoLoad) request(k, seq uint32, due int64) []byte {
	p := l.pkts[k]
	binary.LittleEndian.PutUint32(p[4:], seq)
	binary.LittleEndian.PutUint64(p[8:], uint64(due))
	return p
}

func (l *echoLoad) polled() [2]bool { return [2]bool{true, false} }

func (l *echoLoad) onSock(_ int, pkt []byte) (uint32, verdict, []byte) {
	if len(pkt) != len(l.pkts[0]) {
		return 0, stray, nil
	}
	k := binary.LittleEndian.Uint32(pkt)
	if k >= keySpace {
		return 0, stray, nil
	}
	if bytes.Equal(pkt, l.pkts[k]) {
		return k, replyOK, nil
	}
	return k, replyBad, nil
}

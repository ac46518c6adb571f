package core

import (
	"math/bits"

	"dip/internal/crypto2em"
)

// Verdict is the fate an operation (or the engine) assigns a packet.
type Verdict uint8

// Verdicts, in escalating precedence: a Drop always wins, a Deliver beats a
// Forward, Forward beats Absorb, and Absorb beats Continue. Operations that
// only transform header fields leave the verdict at Continue.
const (
	VerdictContinue Verdict = iota
	VerdictAbsorb           // consumed by router state (PIT aggregation, cache hit)
	VerdictForward          // send out Egress port(s)
	VerdictDeliver          // hand to the local host stack
	VerdictDrop
	numVerdicts
)

// NumVerdicts is the count of distinct verdicts, for counter arrays.
const NumVerdicts = int(numVerdicts)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictContinue:
		return "continue"
	case VerdictAbsorb:
		return "absorb"
	case VerdictForward:
		return "forward"
	case VerdictDeliver:
		return "deliver"
	case VerdictDrop:
		return "drop"
	}
	return "verdict(?)"
}

// DropReason explains a VerdictDrop.
type DropReason uint8

// Drop reasons counted by routers and reported in FN-unsupported signalling.
const (
	DropNone          DropReason = iota
	DropHopLimit                 // hop limit exhausted
	DropMalformed                // framing or operand errors
	DropUnsupportedFN            // router lacks a required operation (§2.4)
	DropOpBudget                 // more FNs than the security limit allows
	DropDeadline                 // per-packet processing deadline exceeded
	DropStateBudget              // per-packet state consumption exceeded
	DropNoRoute                  // match operation found no route
	DropPITMiss                  // data packet without a pending interest
	DropVerifyFailed             // authentication tags invalid
	DropGuard                    // rejected by a security guard (F_pass)
	DropOpError                  // operation failed internally
	DropFlood                    // per-inport pending-interest cap (flood defense)
	numDropReasons
)

// NumDropReasons is the count of distinct drop reasons, for counter arrays.
const NumDropReasons = int(numDropReasons)

var dropNames = [...]string{
	"none", "hop-limit", "malformed", "unsupported-fn", "op-budget",
	"deadline", "state-budget", "no-route", "pit-miss", "verify-failed",
	"guard", "op-error", "flood-cap",
}

// String names the drop reason.
func (r DropReason) String() string {
	if int(r) < len(dropNames) {
		return dropNames[r]
	}
	return "drop(?)"
}

// PortNone marks an unset egress port.
const PortNone = -1

// maxEgress bounds the ports one packet can be replicated to (PIT entries
// aggregate at most this many pending requesters per packet).
const maxEgress = 8

// CryptoState is the parameter block F_parm loads for the authentication
// operations that follow it on the same packet (paper §3: "generate the key
// and load other parameters").
type CryptoState struct {
	Key      [16]byte // hop key derived from the session ID
	HaveKey  bool
	PrevNode [16]byte // previous validator node label (used by F_MAC)
	HopIndex uint8    // this router's position in the validation chain
	// Cipher is Key expanded for 2EM by the first of F_MAC/F_mark to need it,
	// valid while HaveCipher: whoever writes Key clears that, as Reset does.
	HaveCipher bool
	Cipher     crypto2em.Cipher
}

// Step is one executed FN in a packet's observation record: the operation's
// key and, on a timed packet (Observation.Timed), how long its Execute took.
type Step struct {
	Key Key
	Ns  int64
}

// maxClaims bounds how many observers can hold a per-packet claim at once.
// A router's one sampler takes one; the deepest stack anything builds takes
// two (the facade's journey tap — a span-emitting trace recorder — over a
// second trace recorder, as the benchmark stacks them).
const maxClaims = 4

// claim is one observer's note to itself from BeginPacket to EndPacket: two
// words of its choosing (a ring sequence number; a trace ID and a start
// stamp).
type claim struct {
	by   Recorder
	a, b uint64
}

// Observation is the one per-packet record the engine fills when a Recorder
// is installed; every observer (counters, trace ring, journey spans) reads
// it in EndPacket. Steps[:N] are the executed FNs in execution order — wave
// order inside a parallel stage — and can never truncate: the array holds
// the wire maximum. Without a recorder the engine never touches it.
type Observation struct {
	// Begin is the engine's reading of Now as BeginPacket returns: the
	// start of every observer's begin→end bracket around Algorithm 1.
	// Stamped on timed packets only.
	Begin int64
	N     int
	// Timed says an observer asked for this packet's latencies in BeginPacket
	// (Claim sets it; one with nothing to remember sets it itself), so the
	// engine took a clock pair around every FN: Begin and each Step.Ns are
	// readings. An untimed packet's steps carry keys only — counts are exact,
	// latencies sampled — and its ExecContext.MonoNow stays zero.
	Timed bool
	// open says the engine bracketed this packet (its ordinal is a multiple
	// of the recorder stack's period), so Steps are being filled.
	open bool

	nclaims int
	claims  [maxClaims]claim

	// Steps sits last: Reset and the unsampled path stay on the record's
	// first cache lines.
	Steps [MaxFNs]Step
}

// Claim lets observer by, whose SampleEvery just said yes to this packet in
// BeginPacket, remember what it captured before any FN ran until its
// EndPacket collects it with Release, and marks the packet timed.
// SampleEvery has checked there is room.
func (o *Observation) Claim(by Recorder, a, b uint64) {
	o.claims[o.nclaims] = claim{by, a, b}
	o.nclaims++
	o.Timed = true
}

// Release returns and forgets what by claimed on this packet; ok is false
// when it claimed nothing (the packet was not sampled by it) — one integer
// compare on the unsampled path.
func (o *Observation) Release(by Recorder) (a, b uint64, ok bool) {
	for i := 0; i < o.nclaims; i++ {
		if c := o.claims[i]; c.by == by {
			o.nclaims--
			o.claims[i] = o.claims[o.nclaims]
			return c.a, c.b, true
		}
	}
	return 0, 0, false
}

// ExecContext carries one packet through the engine. Contexts are owned by
// the caller and reused across packets via Load (or Reset), keeping the
// forwarding path allocation-free.
type ExecContext struct {
	View   View
	InPort int

	// Verdict state, merged across operations by precedence.
	Verdict Verdict
	Reason  DropReason
	// Egress holds the output ports chosen by match operations. Multiple
	// entries mean replication (PIT fan-out).
	Egress [maxEgress]int
	NEgr   int

	// Crypto is the F_parm → F_MAC/F_mark/F_ver parameter channel.
	Crypto CryptoState

	// Passed records that an F_pass source-label check succeeded on this
	// packet; cache-writing operations consult it when the node runs in
	// require-pass mode (content-poisoning defense, §2.4).
	Passed bool

	// Cached is set (pointing into the content store) when an interest was
	// satisfied locally; the router synthesizes the data reply from it and
	// CachedName, the name the store answered for (valid while Cached is).
	Cached     []byte
	CachedName uint32

	// Reply is the buffer the router builds that reply in; the context keeps
	// it across packets (Reset leaves it alone), so a hit allocates nothing.
	Reply []byte

	// SourceLoc/SourceLen record the operand of an F_source FN, letting the
	// router address FN-unsupported messages back to the packet's source.
	SourceLoc uint16
	SourceLen uint16
	HasSource bool

	// SignalUnsupported is set when the packet was dropped for an
	// unsupported FN whose catalog policy demands notifying the source.
	SignalUnsupported bool
	// UnsupportedKey is the offending key when SignalUnsupported is set.
	UnsupportedKey Key

	// Deadline is the absolute per-packet processing deadline on Now's
	// timeline (security limit, paper §2.4), set by Process when the engine
	// has one.
	Deadline int64

	// AdmittedAt and QueueDepth are the serving layer's admission snapshot
	// for in-band telemetry: the node clock's reading (ns) when this
	// packet's burst was picked up, and how many packets were queued behind
	// it at that moment. F_tel folds them into the hop record (per-hop
	// latency, queue depth at admission). They are burst-scoped — stamped
	// once per burst by BeginBurst on a context its forwarder owns for life
	// — so Reset deliberately leaves them alone. Zero means "unknown": F_tel
	// then records no latency and falls back to its own depth provider.
	AdmittedAt int64
	QueueDepth int32

	// Ordinal counts the packets this context has carried into a recording
	// engine, the current one included. It is private to the context's
	// owner, so 1-in-N sampling on it (SampleEvery) is exact per forwarder and
	// costs no shared state. stamped is the burst stamp: the owner of a
	// context that carries one folds its Tally itself (a forwarder at the
	// end of every burst, HandlePacket after every packet), so Process
	// leaves the fold to it.
	Ordinal uint64
	stamped bool

	// MonoNow is the engine's reading of Now taken just before dispatching
	// the current operation — the same read that starts the op-latency
	// measurement. Operations on the default clock (F_tel's stamp) reuse it
	// instead of paying their own clock read. Zero when the packet is not
	// timed.
	MonoNow int64

	stateBudget int // remaining per-packet state bytes; <0 means unlimited

	// fns[:View.FNNum()] are the packet's FN triples, decoded by Load (or
	// Reset) once: Algorithm 1 dispatches from them, never from the bytes.
	fns [MaxFNs]FN

	// Obs is the packet's observation record. It sits after everything the
	// recorder-less path touches, so the step array stays off its cache
	// lines.
	Obs Observation

	// Tally counts what the context's packets did since its last fold. It
	// sits after Obs for the same reason: without a recorder nothing writes
	// it.
	Tally Tally
}

// Tally is a forwarder's single-writer count of the packets its context
// carried since the last Engine.Fold: packets that entered the engine,
// executions per op key, drops per reason, and verdicts. The engine counts
// the first three when a recorder is installed; the router counts verdicts
// and the drops it decides before the engine. Every count is a plain add on
// a context its owner alone writes; Fold turns them into one atomic add per
// non-zero counter, once per burst.
type Tally struct {
	Packets  uint64
	Verdicts [NumVerdicts]uint64
	Drops    [NumDropReasons]uint64
	Ops      [MaxKey + 1]uint64
	nkeys    int
	keys     [MaxKey + 1]Key // the keys whose Ops are non-zero
}

// CountVerdict tallies one packet's final fate.
func (t *Tally) CountVerdict(v Verdict) { t.Verdicts[v]++ }

// CountDrop tallies a packet dropped before the engine ran: its reason
// and its drop verdict.
func (t *Tally) CountDrop(r DropReason) {
	t.Drops[r]++
	t.Verdicts[VerdictDrop]++
}

// OpKeys returns the keys whose Ops counts are non-zero, in the order each
// was first counted since the last fold.
func (t *Tally) OpKeys() []Key { return t.keys[:t.nkeys] }

// CountOp tallies one execution of operation k (k ≤ MaxKey: the registry
// dispatches nothing above it).
func (t *Tally) CountOp(k Key) { t.addOp(k, 1) }

func (t *Tally) addOp(k Key, n uint64) {
	if t.Ops[k] == 0 {
		t.keys[t.nkeys] = k
		t.nkeys++
	}
	t.Ops[k] += n
}

// add moves o's op counts into t (a parallel wave's copy tallies only the
// FNs it executed).
func (t *Tally) add(o *Tally) {
	for _, k := range o.OpKeys() {
		t.addOp(k, o.Ops[k])
	}
}

// reset zeroes the tally, touching only the op counters in use.
func (t *Tally) reset() {
	for _, k := range t.OpKeys() {
		t.Ops[k] = 0
	}
	t.nkeys = 0
	t.Packets, t.Verdicts, t.Drops = 0, [NumVerdicts]uint64{}, [NumDropReasons]uint64{}
}

// BeginBurst stamps the serving layer's per-burst state on a context its
// forwarder owns: the admission snapshot F_tel reads (the dataplane clock at
// pick-up and the n packets queued at that moment) and the burst stamp that
// leaves folding the context's Tally to the forwarder (Engine.Fold) at the
// burst's end.
func (c *ExecContext) BeginBurst(n int, admittedAt int64) {
	c.AdmittedAt = admittedAt
	c.QueueDepth = int32(n)
	c.stamped = true
}

// Every is a 1-in-N sampling divisor an observer prepares once (NewEvery),
// so the per-packet decision is a multiply, a rotate and a compare instead
// of a 64-bit division. The zero value samples every packet, like N = 1.
type Every struct {
	n     uint64
	inv   uint64 // inverse of N's odd part modulo 2^64
	shift int    // N's trailing zero bits
	max   uint64 // ⌊(2^64−1)/N⌋, the largest quotient a multiple of N has
}

// NewEvery prepares the divisor n (0 is taken as 1).
func NewEvery(n uint64) Every {
	n = max(n, 1)
	shift := bits.TrailingZeros64(n)
	odd := n >> shift
	inv := odd // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		inv *= 2 - odd*inv
	}
	return Every{n: n, inv: inv, shift: shift, max: ^uint64(0) / n}
}

// N returns the divisor.
func (e Every) N() uint64 { return max(e.n, 1) }

// Divides reports x%N == 0, exactly, for every 64-bit x: the odd part's
// inverse maps its multiples, and nothing else, onto their quotients, and
// the rotate lifts any set trailing-zero bit past max.
func (e Every) Divides(x uint64) bool {
	return bits.RotateLeft64(x*e.inv, -e.shift) <= e.max
}

// SampleEvery is every observer's 1-in-every decision for the packet in flight,
// taken in BeginPacket: true on the every-th, 2·every-th, … packet this
// context carries (unless maxClaims observers already claimed it: a yes
// promises room for one Claim). An observer's seen-counter is charged in
// Fold, from Tally.Packets.
func (c *ExecContext) SampleEvery(every Every) bool {
	return every.Divides(c.Ordinal) && c.Obs.nclaims < maxClaims
}

// Load parses pkt as ParseView does — the same parser — but in place: the
// view is written straight into c.View, every FN triple is left decoded for
// Process, and the rest of the context is reset for the new packet as Reset
// does. It is the forwarding path's one parse. On error the context holds an
// empty view, so Process would execute no FN.
func (c *ExecContext) Load(pkt []byte, inPort int) error {
	if err := c.View.parse(pkt, &c.fns); err != nil {
		c.View = View{}
		return err
	}
	c.reset(inPort)
	return nil
}

// Reset prepares the context for a new packet from an already parsed view,
// decoding its FN triples as Load does. Limits are re-armed from the engine
// on each Process call.
func (c *ExecContext) Reset(v View, inPort int) {
	c.View = v
	for i := 0; i < v.FNNum(); i++ {
		c.fns[i] = v.FN(i)
	}
	c.reset(inPort)
}

func (c *ExecContext) reset(inPort int) {
	c.InPort = inPort
	c.Verdict = VerdictContinue
	c.Reason = DropNone
	c.NEgr = 0
	c.Crypto = CryptoState{}
	c.Passed = false
	c.Cached = nil
	c.SourceLoc, c.SourceLen, c.HasSource = 0, 0, false
	c.SignalUnsupported = false
	c.UnsupportedKey = 0
	c.Deadline = 0
	c.MonoNow = 0
	c.stateBudget = -1
	c.Obs.N, c.Obs.Timed, c.Obs.nclaims = 0, false, 0
}

// AddEgress records an output port. Duplicate ports collapse; overflow
// beyond the replication bound is silently capped (the packet still
// forwards to the first maxEgress ports).
func (c *ExecContext) AddEgress(port int) {
	for i := 0; i < c.NEgr; i++ {
		if c.Egress[i] == port {
			return
		}
	}
	if c.NEgr < maxEgress {
		c.Egress[c.NEgr] = port
		c.NEgr++
	}
	if c.Verdict < VerdictForward {
		c.Verdict = VerdictForward
	}
}

// EgressPorts returns the chosen output ports (valid until Reset).
func (c *ExecContext) EgressPorts() []int { return c.Egress[:c.NEgr] }

// Drop records a drop verdict with its reason. The first drop reason wins.
func (c *ExecContext) Drop(r DropReason) {
	if c.Verdict != VerdictDrop {
		c.Verdict = VerdictDrop
		c.Reason = r
	}
}

// Deliver marks the packet for local delivery.
func (c *ExecContext) Deliver() {
	if c.Verdict < VerdictDeliver {
		c.Verdict = VerdictDeliver
	}
}

// Absorb marks the packet as consumed by router state: nothing is forwarded
// and nothing is wrong (interest aggregation, content served from cache).
func (c *ExecContext) Absorb() {
	if c.Verdict < VerdictAbsorb {
		c.Verdict = VerdictAbsorb
	}
}

// ChargeState debits n bytes from the per-packet state budget and reports
// whether the packet is still within it. Operations that create router
// state (PIT entries, cache insertions) must charge before committing.
func (c *ExecContext) ChargeState(n int) bool {
	if c.stateBudget < 0 {
		return true
	}
	if n > c.stateBudget {
		c.Drop(DropStateBudget)
		return false
	}
	c.stateBudget -= n
	return true
}

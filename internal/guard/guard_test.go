package guard

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTokenBucketDeterministicRefill(t *testing.T) {
	b := NewTokenBucket(Rate{PerSec: 10, Burst: 2})
	var now int64
	// Burst drains first.
	if !b.Allow(now) || !b.Allow(now) {
		t.Fatal("burst tokens refused")
	}
	if b.Allow(now) {
		t.Fatal("empty bucket admitted")
	}
	// 10/s → one token every 100ms.
	now += int64(99 * time.Millisecond)
	if b.Allow(now) {
		t.Fatal("token appeared 1ms early")
	}
	now += int64(time.Millisecond)
	if !b.Allow(now) {
		t.Fatal("refilled token refused")
	}
	// Refill never exceeds the burst.
	now += int64(time.Hour)
	if !b.Allow(now) || !b.Allow(now) {
		t.Fatal("burst after idle refused")
	}
	if b.Allow(now) {
		t.Fatal("idle refill exceeded burst")
	}
	// Clock regressions are tolerated (treated as no elapsed time).
	if b.Allow(now - int64(time.Hour)) {
		t.Fatal("clock regression minted tokens")
	}
}

func TestTokenBucketRefillsByDelta(t *testing.T) {
	// Regression: refill must use time elapsed SINCE THE LAST REFILL, not
	// the absolute clock reading. With a wall clock (large now values) the
	// absolute-time bug refilled the bucket to full burst on every call,
	// disabling admission control entirely in live deployments.
	b := NewTokenBucket(Rate{PerSec: 10, Burst: 5})
	now := int64(time.Second) // clock well past zero, as wall time always is
	for i := 0; i < 5; i++ {
		if !b.Allow(now) {
			t.Fatalf("burst token %d refused", i)
		}
	}
	// 100ms later exactly one token has accrued — not burst-many.
	now += int64(100 * time.Millisecond)
	if !b.Allow(now) {
		t.Fatal("accrued token refused")
	}
	if b.Allow(now) {
		t.Fatal("refill credited more than the elapsed interval")
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	b := NewTokenBucket(Rate{})
	for i := 0; i < 1000; i++ {
		if !b.Allow(0) {
			t.Fatal("unlimited bucket refused")
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		pkt  []byte
		want Class
	}{
		{"empty", nil, ClassBulk},
		{"one byte", []byte{1}, ClassBulk},
		{"dip data", []byte{1, 0x00, 0, 64}, ClassBulk},
		{"dip fn-unsupported", []byte{1, 0xFE, 0, 64}, ClassControl},
		{"dip tunnel control", []byte{1, 0xFD, 0, 64}, ClassControl},
		{"dip route exchange", []byte{1, 0xFC, 0, 64}, ClassControl},
		{"ipv4 probe", append([]byte{0x45, 0, 0, 20, 0, 0, 0, 0, 64, 0xFE}, make([]byte, 10)...), ClassControl},
		{"ipv4 udp", append([]byte{0x45, 0, 0, 20, 0, 0, 0, 0, 64, 17}, make([]byte, 10)...), ClassBulk},
		{"short ipv4 probe", []byte{0x45, 0xFE}, ClassBulk},
		{"garbage", []byte{0xFF, 0xFE, 0xFD}, ClassBulk},
	}
	for _, c := range cases {
		if got := Classify(c.pkt); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAdmissionIsolatesPorts(t *testing.T) {
	var now int64
	a := NewAdmission(Policy{PerPort: Rate{PerSec: 1, Burst: 5}}, func() int64 { return now })
	// Port 0 floods and exhausts its own bucket.
	admitted := 0
	for i := 0; i < 100; i++ {
		if a.Admit(0, ClassBulk) {
			admitted++
		}
	}
	if admitted != 5 {
		t.Errorf("flooding port admitted %d, want its burst of 5", admitted)
	}
	// Port 1 is untouched by port 0's exhaustion.
	for i := 0; i < 5; i++ {
		if !a.Admit(1, ClassBulk) {
			t.Fatalf("well-behaved port refused at packet %d", i)
		}
	}
	if a.Rejected() != 95 {
		t.Errorf("Rejected = %d, want 95", a.Rejected())
	}
	if a.RejectedOnPort(0) != 95 || a.RejectedOnPort(1) != 0 {
		t.Errorf("per-port rejections: port0=%d port1=%d", a.RejectedOnPort(0), a.RejectedOnPort(1))
	}
}

func TestAdmissionClassBuckets(t *testing.T) {
	var policy Policy
	policy.PerClass[ClassBulk] = Rate{PerSec: 1, Burst: 2}
	var now int64
	a := NewAdmission(policy, func() int64 { return now })
	if !a.Admit(0, ClassBulk) || !a.Admit(1, ClassBulk) {
		t.Fatal("bulk burst refused")
	}
	if a.Admit(2, ClassBulk) {
		t.Fatal("bulk admitted past the class limit")
	}
	// Control is not limited by the bulk bucket.
	for i := 0; i < 50; i++ {
		if !a.Admit(0, ClassControl) {
			t.Fatal("control refused by bulk class limit")
		}
	}
	if got := a.RejectedInClass(ClassBulk); got != 1 {
		t.Errorf("RejectedInClass(bulk) = %d, want 1", got)
	}
}

func TestAdmissionConcurrent(t *testing.T) {
	a := NewAdmission(Policy{PerPort: Rate{PerSec: 1000, Burst: 10}}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Admit(g%4, Class(i%NumClasses))
			}
		}()
	}
	wg.Wait()
	if a.Rejected() == 0 {
		t.Error("concurrent flood never rejected")
	}
}

func TestQuarantineRingBoundsAndOrder(t *testing.T) {
	q := NewQuarantine(3)
	for i := 0; i < 5; i++ {
		q.Add(Capture{InPort: i, Packet: []byte{byte(i)}, Panic: fmt.Sprintf("p%d", i)})
	}
	if q.Total() != 5 {
		t.Errorf("Total = %d, want 5", q.Total())
	}
	snap := q.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot holds %d, want ring cap 3", len(snap))
	}
	for i, c := range snap {
		wantSeq := int64(i + 2) // oldest retained is seq 2
		if c.Seq != wantSeq || c.InPort != int(wantSeq) {
			t.Errorf("snapshot[%d] = seq %d inport %d, want seq %d", i, c.Seq, c.InPort, wantSeq)
		}
	}
}

func TestCaptureDumpIsDipdumpCompatible(t *testing.T) {
	q := NewQuarantine(2)
	q.Add(Capture{InPort: 3, Packet: []byte{0x01, 0x02}, Panic: "boom", Stack: "goroutine 1\nmain.go:1"})
	dump := q.Dump()
	var hexLines, commentLines int
	for _, line := range strings.Split(strings.TrimRight(dump, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			commentLines++
			continue
		}
		hexLines++
		if line != "0102" {
			t.Errorf("hex line %q, want 0102", line)
		}
	}
	if hexLines != 1 || commentLines != 3 {
		t.Errorf("dump shape: %d hex lines, %d comments\n%s", hexLines, commentLines, dump)
	}
	if !strings.Contains(dump, `panic="boom"`) || !strings.Contains(dump, "inport=3") {
		t.Errorf("metadata missing from dump:\n%s", dump)
	}
}

// Rejected returns the total number of packets admission turned away.
func (a *Admission) Rejected() int64 { return a.rejected.Load() }

// RejectedInClass returns the rejection count charged to one class.
func (a *Admission) RejectedInClass(c Class) int64 {
	if int(c) >= NumClasses {
		return 0
	}
	return a.classRejected[c].Load()
}

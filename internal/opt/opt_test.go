package opt

import (
	"bytes"
	"errors"
	"testing"

	"dip/internal/drkey"
)

func secrets(t *testing.T, ids ...string) []*drkey.SecretValue {
	t.Helper()
	out := make([]*drkey.SecretValue, len(ids))
	for i, id := range ids {
		sv, err := drkey.NewSecretValue(id, bytes.Repeat([]byte{byte(i + 1)}, 16))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sv
	}
	return out
}

func pathConfigs(svs []*drkey.SecretValue) []HopConfig {
	hops := make([]HopConfig, len(svs))
	for i, sv := range svs {
		hops[i] = HopConfig{Secret: sv, HopIndex: uint8(i)}
		hops[i].PrevLabel[0] = byte(i + 0x10)
	}
	return hops
}

func TestRegionLayout(t *testing.T) {
	if RegionSize(1) != 68 {
		t.Errorf("RegionSize(1) = %d, want 68 (Table 2's OPT locations)", RegionSize(1))
	}
	if RegionBits(1) != 544 {
		t.Errorf("RegionBits(1) = %d, want 544 (F_ver operand)", RegionBits(1))
	}
	if RegionSize(3) != 100 {
		t.Errorf("RegionSize(3) = %d", RegionSize(3))
	}
	b := make([]byte, RegionSize(2))
	r, err := AsRegion(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops() != 2 {
		t.Errorf("Hops = %d", r.Hops())
	}
	// Field views must tile the region without overlap.
	r.DataHash()[0] = 1
	r.SessionID()[0] = 2
	r.Timestamp()[0] = 3
	r.PVF()[0] = 4
	r.OPV(0)[0] = 5
	r.OPV(1)[0] = 6
	want := []int{0, 16, 32, 36, 52, 68}
	vals := []byte{1, 2, 3, 4, 5, 6}
	for i, off := range want {
		if b[off] != vals[i] {
			t.Errorf("field %d at offset %d: %d", i, off, b[off])
		}
	}
	if _, err := AsRegion(make([]byte, 10)); !errors.Is(err, ErrRegionSize) {
		t.Errorf("short region: %v", err)
	}
}

func TestEndToEndSingleHop(t *testing.T) {
	for _, kind := range []Kind{Kind2EM, KindAESCMAC} {
		t.Run(kind.String(), func(t *testing.T) {
			svs := secrets(t, "r1", "dst")
			hops := pathConfigs(svs[:1])
			sess, err := NewSession(kind, hops, svs[1])
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte("the content of hotnets.org")
			region := make([]byte, RegionSize(1))
			if err := sess.InitRegion(region, payload, 1234); err != nil {
				t.Fatal(err)
			}
			if err := ProcessHop(hops[0], kind, region); err != nil {
				t.Fatal(err)
			}
			if err := sess.Verify(region, payload); err != nil {
				t.Errorf("Verify: %v", err)
			}
		})
	}
}

func TestEndToEndMultiHop(t *testing.T) {
	svs := secrets(t, "r1", "r2", "r3", "dst")
	hops := pathConfigs(svs[:3])
	sess, err := NewSession(Kind2EM, hops, svs[3])
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("multi-hop content")
	region := make([]byte, RegionSize(3))
	if err := sess.InitRegion(region, payload, 99); err != nil {
		t.Fatal(err)
	}
	for _, h := range hops {
		if err := ProcessHop(h, Kind2EM, region); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Verify(region, payload); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestVerifyDetectsPayloadTamper(t *testing.T) {
	svs := secrets(t, "r1", "dst")
	hops := pathConfigs(svs[:1])
	sess, _ := NewSession(Kind2EM, hops, svs[1])
	payload := []byte("original")
	region := make([]byte, RegionSize(1))
	sess.InitRegion(region, payload, 1)
	ProcessHop(hops[0], Kind2EM, region)
	if err := sess.Verify(region, []byte("tampered")); !errors.Is(err, ErrDataHash) {
		t.Errorf("got %v, want ErrDataHash", err)
	}
}

func TestVerifyDetectsSkippedHop(t *testing.T) {
	svs := secrets(t, "r1", "r2", "dst")
	hops := pathConfigs(svs[:2])
	sess, _ := NewSession(Kind2EM, hops, svs[2])
	payload := []byte("content")
	region := make([]byte, RegionSize(2))
	sess.InitRegion(region, payload, 1)
	// Only hop 0 processes — hop 1 was bypassed (path deviation).
	ProcessHop(hops[0], Kind2EM, region)
	if err := sess.Verify(region, payload); err == nil {
		t.Error("skipped hop not detected")
	}
}

func TestVerifyDetectsWrongRouter(t *testing.T) {
	svs := secrets(t, "r1", "impostor", "dst")
	hops := pathConfigs(svs[:1])
	sess, _ := NewSession(Kind2EM, hops, svs[2])
	payload := []byte("content")
	region := make([]byte, RegionSize(1))
	sess.InitRegion(region, payload, 1)
	// An off-path router with a different secret processes instead.
	impostor := HopConfig{Secret: svs[1], HopIndex: 0}
	ProcessHop(impostor, Kind2EM, region)
	err := sess.Verify(region, payload)
	if err == nil {
		t.Fatal("impostor hop not detected")
	}
}

func TestVerifyDetectsTagTamper(t *testing.T) {
	svs := secrets(t, "r1", "dst")
	hops := pathConfigs(svs[:1])
	sess, _ := NewSession(Kind2EM, hops, svs[1])
	payload := []byte("content")

	region := make([]byte, RegionSize(1))
	sess.InitRegion(region, payload, 1)
	ProcessHop(hops[0], Kind2EM, region)
	region[PVFOff] ^= 1
	if err := sess.Verify(region, payload); !errors.Is(err, ErrPVF) {
		t.Errorf("PVF tamper: %v", err)
	}

	region2 := make([]byte, RegionSize(1))
	sess.InitRegion(region2, payload, 1)
	ProcessHop(hops[0], Kind2EM, region2)
	region2[OPVOff] ^= 1
	if err := sess.Verify(region2, payload); !errors.Is(err, ErrOPV) {
		t.Errorf("OPV tamper: %v", err)
	}
}

func TestVerifyDetectsPrevLabelMismatch(t *testing.T) {
	svs := secrets(t, "r1", "dst")
	hops := pathConfigs(svs[:1])
	sess, _ := NewSession(Kind2EM, hops, svs[1])
	payload := []byte("content")
	region := make([]byte, RegionSize(1))
	sess.InitRegion(region, payload, 1)
	wrong := hops[0]
	wrong.PrevLabel[0] ^= 0xFF
	ProcessHop(wrong, Kind2EM, region)
	if err := sess.Verify(region, payload); !errors.Is(err, ErrOPV) {
		t.Errorf("prev-label mismatch: %v", err)
	}
}

func TestSessionIDsUnique(t *testing.T) {
	svs := secrets(t, "r1", "dst")
	hops := pathConfigs(svs[:1])
	s1, _ := NewSession(Kind2EM, hops, svs[1])
	s2, _ := NewSession(Kind2EM, hops, svs[1])
	if s1.ID == s2.ID {
		t.Error("two sessions share an ID")
	}
	if s1.hopKeys[0] == s2.hopKeys[0] {
		t.Error("hop keys identical across sessions")
	}
}

func TestInitRegionSizeChecked(t *testing.T) {
	svs := secrets(t, "r1", "dst")
	sess, _ := NewSession(Kind2EM, pathConfigs(svs[:1]), svs[1])
	if err := sess.InitRegion(make([]byte, 10), nil, 0); !errors.Is(err, ErrRegionSize) {
		t.Errorf("got %v", err)
	}
	if err := sess.Verify(make([]byte, 10), nil); !errors.Is(err, ErrRegionSize) {
		t.Errorf("got %v", err)
	}
}

func TestProcessHopBadIndex(t *testing.T) {
	svs := secrets(t, "r1", "dst")
	cfg := HopConfig{Secret: svs[0], HopIndex: 5}
	if err := ProcessHop(cfg, Kind2EM, make([]byte, RegionSize(1))); err == nil {
		t.Error("out-of-range hop index accepted")
	}
}

func TestNewMACKinds(t *testing.T) {
	key := make([]byte, 16)
	for _, k := range []Kind{Kind2EM, KindAESCMAC} {
		m, err := NewMAC(k, key)
		if err != nil || m == nil {
			t.Errorf("%v: %v", k, err)
		}
	}
	if _, err := NewMAC(Kind(9), key); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind: %v", err)
	}
	if Kind(9).String() != "kind(?)" || Kind2EM.String() != "2EM" {
		t.Error("Kind.String")
	}
}

func TestComputeDataHashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for bad out size")
		}
	}()
	ComputeDataHash(make([]byte, 8), nil)
}

func BenchmarkProcessHop2EM(b *testing.B)  { benchHop(b, Kind2EM) }
func BenchmarkProcessHopCMAC(b *testing.B) { benchHop(b, KindAESCMAC) }

func benchHop(b *testing.B, kind Kind) {
	sv, _ := drkey.NewSecretValue("r", make([]byte, 16))
	cfg := HopConfig{Secret: sv}
	region := make([]byte, RegionSize(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ProcessHop(cfg, kind, region); err != nil {
			b.Fatal(err)
		}
	}
}

package drkey

import (
	"bytes"
	"crypto/rand"
	"testing"
)

func TestSessionKeyDeterministic(t *testing.T) {
	sv, err := NewSecretValue("r1", bytes.Repeat([]byte{1}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	sid := bytes.Repeat([]byte{9}, SessionIDSize)
	var k1, k2 [KeySize]byte
	if err := sv.SessionKey(k1[:], sid); err != nil {
		t.Fatal(err)
	}
	if err := sv.SessionKey(k2[:], sid); err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("derivation not deterministic")
	}
}

func TestSessionKeyVariesWithSessionAndSecret(t *testing.T) {
	svA, _ := NewSecretValue("a", bytes.Repeat([]byte{1}, KeySize))
	svB, _ := NewSecretValue("b", bytes.Repeat([]byte{2}, KeySize))
	sid1 := bytes.Repeat([]byte{1}, SessionIDSize)
	sid2 := bytes.Repeat([]byte{2}, SessionIDSize)
	var kA1, kA2, kB1 [KeySize]byte
	svA.SessionKey(kA1[:], sid1)
	svA.SessionKey(kA2[:], sid2)
	svB.SessionKey(kB1[:], sid1)
	if kA1 == kA2 {
		t.Error("same key for different sessions")
	}
	if kA1 == kB1 {
		t.Error("same key for different routers")
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewSecretValue("r", make([]byte, 8)); err == nil {
		t.Error("short secret accepted")
	}
	sv, _ := NewSecretValue("r", make([]byte, KeySize))
	if err := sv.SessionKey(make([]byte, 8), make([]byte, SessionIDSize)); err == nil {
		t.Error("short out accepted")
	}
	if err := sv.SessionKey(make([]byte, KeySize), make([]byte, 4)); err == nil {
		t.Error("short session ID accepted")
	}
}

func TestRandomSecretValue(t *testing.T) {
	a, err := RandomSecretValue("r1")
	if err != nil {
		t.Fatal(err)
	}
	if a.RouterID() != "r1" {
		t.Errorf("RouterID = %q", a.RouterID())
	}
	b, _ := RandomSecretValue("r1")
	sid := make([]byte, SessionIDSize)
	var ka, kb [KeySize]byte
	a.SessionKey(ka[:], sid)
	b.SessionKey(kb[:], sid)
	if ka == kb {
		t.Error("two random secrets derived the same key")
	}
}

func BenchmarkSessionKey(b *testing.B) {
	sv, _ := NewSecretValue("r", make([]byte, KeySize))
	sid := make([]byte, SessionIDSize)
	var out [KeySize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sv.SessionKey(out[:], sid)
	}
}

// RandomSecretValue generates a fresh secret for the named router.
func RandomSecretValue(routerID string) (*SecretValue, error) {
	secret := make([]byte, KeySize)
	if _, err := rand.Read(secret); err != nil {
		return nil, err
	}
	return NewSecretValue(routerID, secret)
}

// RouterID returns the identifier the secret was created for.
func (sv *SecretValue) RouterID() string { return sv.id }

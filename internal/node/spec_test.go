package node

import (
	"strings"
	"testing"
	"time"

	"dip/internal/guard"
)

// TestValidate pins the one error each misapplied setting produces. Both
// parsers (diprouter flags, topo DSL) reach these through Spec.Validate, so
// the same mistake reads the same in either.
func TestValidate(t *testing.T) {
	rate := guard.Rate{PerSec: 100, Burst: 10}
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error; "" = valid
	}{
		{"empty", Spec{}, ""},
		{"full", Spec{
			Cache: 16, CSShards: 2, CSCold: 8, CSSlot: 256, CSReaders: 1, CSColdFile: "/tmp/arena",
			Workers: 2, Queue: 64, Batch: 8, AdmitPort: rate, AdmitBulk: rate,
			TraceEvery: 1, TraceRing: 64, IntEvery: 1, IntSlots: 8,
			Speaker: true, SpeakerRefresh: time.Second, Secret: make([]byte, 16),
		}, ""},
		{"pump mode admits queue", Spec{Batch: 8, Queue: 64}, ""},

		// Previously ignored by diprouter.
		{"csslot without cscold", Spec{Cache: 4, CSSlot: 128}, "csslot needs cscold"},
		{"csreaders without cscold", Spec{Cache: 4, CSReaders: 2}, "csreaders needs cscold"},
		{"cscold-file without cscold", Spec{Cache: 4, CSColdFile: "x"}, "cscold-file needs cscold"},
		{"int-slots without int-every", Spec{IntSlots: 8}, "int-slots needs int-every"},
		{"csshards without cache", Spec{CSShards: 2}, "csshards needs cache"},
		{"admit-port without ingress", Spec{AdmitPort: rate}, "admit-port needs the guarded ingress"},
		{"admit-bulk without ingress", Spec{AdmitBulk: rate}, "admit-bulk needs the guarded ingress"},
		{"trace-ring without trace-every", Spec{TraceRing: 8}, "trace-ring needs trace-every"},

		// Already rejected by one parser or the other.
		{"cscold without cache", Spec{CSCold: 8}, "cscold needs a hot tier"},
		{"queue without ingress", Spec{Queue: 64}, "queue needs the guarded ingress"},
		{"speaker without refresh", Spec{Speaker: true}, "speaker refresh must be positive"},
		{"int-slots range", Spec{IntEvery: 1, IntSlots: 128}, "int-slots wants 1..127"},
		{"short secret", Spec{Secret: []byte{1, 2}}, "secret must be 16 bytes"},
		{"negative", Spec{Cache: -1}, "cache must not be negative"},
		{"negative pit ttl", Spec{PITTTL: -1}, "pit ttl must not be negative"},
		{"route width", Spec{Routes32: []Route{{Prefix: []byte{10}, Len: 8}}}, "route32"},
		{"route length", Spec{Names: []Route{{Prefix: []byte{0xAA, 0, 0, 0}, Len: 33}}}, "name"},
		{"route port", Spec{Routes128: []Route{{Prefix: make([]byte, 16), Len: 8, Port: -1}}}, "bad port"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
			if c.want == "" {
				return
			}
			if _, berr := Build(c.spec, WallEnv(nil)); berr == nil || berr.Error() != err.Error() {
				t.Errorf("Build error %v, want Validate's %v", berr, err)
			}
		})
	}
}

func TestParseRoute(t *testing.T) {
	ok := []struct {
		bits           int
		prefix, target string
		want           Route
	}{
		{32, "10.0.0.0/8", "1", Route{Prefix: []byte{10, 0, 0, 0}, Len: 8, Port: 1}},
		{32, "0xAA000000/8", "local", Route{Prefix: []byte{0xAA, 0, 0, 0}, Len: 8, Port: LocalPort}},
		{32, "aa000000/32", "0", Route{Prefix: []byte{0xAA, 0, 0, 0}, Len: 32, Port: 0}},
		{128, "20/8", "2", Route{Prefix: append([]byte{0x20}, make([]byte, 15)...), Len: 8, Port: 2}},
	}
	for _, c := range ok {
		got, err := ParseRoute(c.bits, c.prefix, c.target)
		if err != nil {
			t.Errorf("ParseRoute(%d, %q, %q): %v", c.bits, c.prefix, c.target, err)
			continue
		}
		if string(got.Prefix) != string(c.want.Prefix) || got.Len != c.want.Len || got.Port != c.want.Port {
			t.Errorf("ParseRoute(%d, %q, %q) = %+v, want %+v", c.bits, c.prefix, c.target, got, c.want)
		}
		spec := Spec{Routes32: []Route{got}}
		if c.bits == 128 {
			spec = Spec{Routes128: []Route{got}}
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("parsed route %+v fails Validate: %v", got, err)
		}
	}
	bad := []struct {
		bits           int
		prefix, target string
	}{
		{32, "10.0.0.0", "1"},                       // no length
		{32, "10.0.0.0/33", "1"},                    // length beyond the table width
		{32, "10.0.0/8", "1"},                       // short dotted quad
		{32, "10.0.0.256/8", "1"},                   // octet overflow
		{32, "10.0.0.0/8", "x"},                     // port
		{32, "10.0.0.0/8", "-1"},                    // negative port
		{128, "zz/8", "1"},                          // not hex
		{128, strings.Repeat("ab", 17) + "/8", "1"}, // longer than 16 bytes
	}
	for _, c := range bad {
		if r, err := ParseRoute(c.bits, c.prefix, c.target); err == nil {
			t.Errorf("ParseRoute(%d, %q, %q) accepted: %+v", c.bits, c.prefix, c.target, r)
		}
	}
}

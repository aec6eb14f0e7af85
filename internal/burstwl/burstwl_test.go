package burstwl

import (
	"strings"
	"testing"
)

func TestParseSpecSeededForm(t *testing.T) {
	s, err := ParseSpec("42")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 {
		t.Errorf("seed = %d, want 42", s.Seed)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("generated spec invalid: %v", err)
	}
	again, err := ParseSpec("42")
	if err != nil {
		t.Fatal(err)
	}
	if *s != *again {
		t.Errorf("seeded parse not deterministic: %+v vs %+v", s, again)
	}
}

func TestParseSpecExplicitForm(t *testing.T) {
	s, err := ParseSpec("clients=3,servers=4,fanout=2,rate=12500,mode=onoff")
	if err != nil {
		t.Fatal(err)
	}
	if s.Clients != 3 || s.Servers != 4 || s.Fanout != 2 || s.RateHz != 12500 || s.Mode != ModeOnOff {
		t.Errorf("explicit keys not applied: %+v", s)
	}
	if s.Reqs == 0 || s.Bytes == 0 || s.Cap == 0 {
		t.Errorf("omitted keys lost their defaults: %+v", s)
	}
}

func TestArgRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		s := NewSpec(seed)
		again, err := ParseSpec(s.Arg())
		if err != nil {
			t.Fatalf("seed %d: canonical arg rejected: %v", seed, err)
		}
		if *s != *again {
			t.Errorf("seed %d: Arg round trip changed the spec: %+v vs %+v", seed, s, again)
		}
	}
}

func TestParseSpecRejectsMalformedSpecs(t *testing.T) {
	for _, tc := range []struct{ arg, want string }{
		{"rate=-1", "rate=-1 out of range"},
		{"rate=0", "rate=0 out of range"},
		{"-7", "must be non-negative"},
		{"clients=0", "clients=0 out of range"},
		{"fanout=5,servers=3", "fanout=5 out of range"},
		{"mode=sawtooth", `mode "sawtooth"`},
		{"bogus=1", `unknown key "bogus"`},
		{"rate", "not key=value"},
		{"reqs=twelve", "not an integer"},
	} {
		_, err := ParseSpec(tc.arg)
		if err == nil {
			t.Errorf("%q accepted", tc.arg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q lacks %q", tc.arg, err, tc.want)
		}
	}
}

func TestClientScheduleShape(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		s := NewSpec(seed)
		for c := 0; c < s.Clients; c++ {
			sched := s.ClientSchedule(c)
			again := s.ClientSchedule(c)
			if len(sched.GapsUS) != s.Reqs || len(sched.Targets) != s.Reqs {
				t.Fatalf("seed %d client %d: schedule covers %d/%d of %d reqs",
					seed, c, len(sched.GapsUS), len(sched.Targets), s.Reqs)
			}
			for q := 0; q < s.Reqs; q++ {
				if sched.GapsUS[q] < 0 {
					t.Errorf("seed %d client %d req %d: negative gap %d", seed, c, q, sched.GapsUS[q])
				}
				if sched.GapsUS[q] != again.GapsUS[q] {
					t.Fatalf("seed %d client %d: schedule not deterministic", seed, c)
				}
				targets := sched.Targets[q]
				if len(targets) != s.Fanout {
					t.Fatalf("seed %d client %d req %d: %d targets, want fanout %d",
						seed, c, q, len(targets), s.Fanout)
				}
				seen := map[int]bool{}
				for _, srv := range targets {
					if srv < 0 || srv >= s.Servers || seen[srv] {
						t.Fatalf("seed %d client %d req %d: bad target set %v", seed, c, q, targets)
					}
					seen[srv] = true
				}
			}
		}
	}
}

func TestClosedFormsAgree(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		s := NewSpec(seed)
		units, _ := s.Expected()
		if want := s.Clients * s.Reqs * s.Fanout; units != want {
			t.Errorf("seed %d: expected units %d, want clients×reqs×fanout = %d", seed, units, want)
		}
		toServer, toCollector := s.EdgeOps()
		var reqSends, respSends uint64
		for c := range toServer {
			for _, ops := range toServer[c] {
				reqSends += ops
			}
		}
		for _, ops := range toCollector {
			respSends += ops
		}
		if int(reqSends) != units || int(respSends) != units {
			t.Errorf("seed %d: edge ops %d/%d disagree with units %d", seed, reqSends, respSends, units)
		}
		if total := s.TotalSends(); total != int(reqSends+respSends) {
			t.Errorf("seed %d: TotalSends %d != %d", seed, total, reqSends+respSends)
		}
	}
}

func TestNameAndRepro(t *testing.T) {
	if got := Name(9); got != "burst:9" {
		t.Errorf("Name = %q", got)
	}
	if got := New(9).Name(); got != "burst:9" {
		t.Errorf("Workload.Name = %q", got)
	}
}

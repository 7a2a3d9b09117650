package strike

import (
	"testing"
	"time"
)

func TestBookPolicy(t *testing.T) {
	const w = time.Minute
	// A step either records n strikes at offset at and expects the last
	// Strike to return want, or (n == 0) expects Quarantined at that
	// offset to return want.
	type step struct {
		at   time.Duration
		n    int
		want bool
	}
	cases := []struct {
		name      string
		threshold int
		steps     []step
		strikes   int  // Strikes after the last step
		dropped   bool // entry removed after the last step
	}{
		{
			name: "below threshold", threshold: 3,
			steps:   []step{{0, 0, false}, {0, 1, false}, {time.Second, 1, false}, {2 * time.Second, 0, false}},
			strikes: 2,
		},
		{
			name: "ban at threshold lasts one window", threshold: 2,
			steps:   []step{{0, 1, false}, {0, 1, true}, {w - time.Second, 0, true}, {w, 0, false}},
			strikes: 2,
		},
		{
			name: "each further strike doubles the ban", threshold: 3,
			steps: []step{
				{0, 3, true}, {w - time.Second, 0, true},
				{30 * time.Second, 1, true}, {30*time.Second + 2*w - time.Second, 0, true},
				{60 * time.Second, 1, true}, {60*time.Second + 4*w - time.Second, 0, true},
				{60*time.Second + 4*w, 0, false},
			},
			strikes: 0, dropped: true,
		},
		{
			name: "ban capped at window<<8 without overflow", threshold: 3,
			steps:   []step{{0, 100, true}, {w<<8 - time.Nanosecond, 0, true}, {w << 8, 0, false}},
			strikes: 0, dropped: true,
		},
		{
			name: "clean window forgives", threshold: 3,
			steps:   []step{{0, 3, true}, {2*w + time.Second, 1, false}, {2*w + 2*time.Second, 0, false}},
			strikes: 1,
		},
		{
			name: "no forgiveness while still banned", threshold: 2,
			steps:   []step{{0, 5, true}, {2 * w, 1, true}, {2*w + 16*w - time.Second, 0, true}},
			strikes: 6,
		},
		{
			name: "decayed entry dropped", threshold: 2,
			steps:   []step{{0, 2, true}, {2*w + time.Second, 0, false}},
			strikes: 0, dropped: true,
		},
		{
			name: "lapsed ban within the window is kept", threshold: 2,
			steps:   []step{{0, 2, true}, {w, 0, false}},
			strikes: 2,
		},
		{
			name: "threshold 0 counts but never quarantines", threshold: 0,
			steps:   []step{{0, 10, false}, {0, 0, false}},
			strikes: 10,
		},
		{
			name: "negative threshold counts but never quarantines", threshold: -1,
			steps:   []step{{0, 10, false}, {time.Second, 0, false}},
			strikes: 10,
		},
	}
	base := time.Unix(1000, 0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := New[string](tc.threshold, w)
			for i, s := range tc.steps {
				now := base.Add(s.at)
				got := false
				if s.n == 0 {
					got = b.Quarantined("k", now)
				}
				for j := 0; j < s.n; j++ {
					got = b.Strike("k", now)
				}
				if got != s.want {
					t.Fatalf("step %d (%+v): got %v, want %v", i, s, got, s.want)
				}
			}
			if got := b.Strikes("k"); got != tc.strikes {
				t.Errorf("strikes = %d, want %d", got, tc.strikes)
			}
			if _, ok := b.entries["k"]; ok == tc.dropped {
				t.Errorf("entry present = %v, want %v", ok, !tc.dropped)
			}
			if b.Quarantined("other", base) || b.Strikes("other") != 0 {
				t.Error("unknown key has a record")
			}
		})
	}
}

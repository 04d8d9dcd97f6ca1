package main

import (
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		domains int
		period  time.Duration
		ok      bool
	}{
		{"defaults", 4, 0, 0, true},
		{"serial domained smoke", 1, 3, 10 * time.Minute, true},
		{"zero workers", 0, 0, 0, false},
		{"negative workers", -3, 0, 0, false},
		{"negative domains", 2, -1, 0, false},
		{"negative period", 2, 0, -5 * time.Minute, false},
	} {
		err := checkFlags(tc.workers, tc.domains, tc.period)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(%d, %d, %v) = %v, want ok=%v",
				tc.name, tc.workers, tc.domains, tc.period, err, tc.ok)
		}
	}
}

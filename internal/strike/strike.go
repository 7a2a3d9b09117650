// Package strike is the one strike/quarantine policy shared by the
// client's peer bans, the dist coordinator's worker health and the
// gateway's replica breaker.
//
// A key accumulates strikes. At the threshold it is quarantined for one
// window, and every further strike doubles the quarantine, capped at
// window<<8. A key that stays clean for a full window past any
// quarantine is forgiven: its next strike counts from one. Threshold
// <= 0 disables quarantine; strikes are still counted for telemetry.
//
// A Book does no locking and reads no clock: callers confine it to
// their own mutex or event loop and pass the time in, so tests can
// drive it with a stubbed clock.
package strike

import "time"

// maxShift caps escalation: no quarantine lasts longer than
// window<<maxShift.
const maxShift = 8

// Book records strikes per key.
type Book[K comparable] struct {
	threshold int
	window    time.Duration
	entries   map[K]*entry
}

type entry struct {
	strikes int
	last    time.Time // most recent strike
	until   time.Time // quarantine expiry (zero below threshold)
}

// New returns an empty Book. window is both the decay window and the
// base quarantine length.
func New[K comparable](threshold int, window time.Duration) *Book[K] {
	return &Book[K]{threshold: threshold, window: window, entries: make(map[K]*entry)}
}

// Strike records one strike against k at now and reports whether k is
// now quarantined.
func (b *Book[K]) Strike(k K, now time.Time) bool {
	e := b.entries[k]
	if e == nil {
		e = &entry{}
		b.entries[k] = e
	} else if now.Sub(e.last) > b.window && now.After(e.until) {
		e.strikes = 0 // clean for a full window: forgiven
	}
	e.strikes++
	e.last = now
	if b.threshold <= 0 || e.strikes < b.threshold {
		return false
	}
	e.until = now.Add(b.window << uint(min(e.strikes-b.threshold, maxShift)))
	return true
}

// Quarantined reports whether k is quarantined at now. An entry past
// its quarantine and clean for a full window is dropped.
func (b *Book[K]) Quarantined(k K, now time.Time) bool {
	e := b.entries[k]
	if e == nil {
		return false
	}
	if now.Before(e.until) {
		return true
	}
	if now.Sub(e.last) > b.window {
		delete(b.entries, k)
	}
	return false
}

// Strikes returns k's recorded strike count.
func (b *Book[K]) Strikes(k K) int {
	if e := b.entries[k]; e != nil {
		return e.strikes
	}
	return 0
}

// Until returns when k's quarantine expires; the zero time if k has
// never been quarantined or its entry was dropped.
func (b *Book[K]) Until(k K) time.Time {
	if e := b.entries[k]; e != nil {
		return e.until
	}
	return time.Time{}
}

package mpp

import "dbspinner/internal/sqltypes"

// Test-only machinery for the reuse of exchange buffers (site.go), as
// exec's scribbleOp is for borrowed rows: a site's content is destroyed
// the moment the machine declares it reusable — the earliest moment
// reuse could overwrite it, made certain instead of dependent on
// whether the same plan happens to be evaluated again.

// Poisoned is what Poison leaves in every cell of a freed site: a value
// no test table holds, so a consumer that still reads the site shows it.
var Poisoned = sqltypes.NewString("<reused>")

// Poison makes m overwrite every cell of a site — the rows delivered and
// the room behind them — when it marks the site free. It returns the
// count of sites so destroyed.
func Poison(m *Machine) (freed *int) {
	freed = new(int)
	m.test.freed = func(s *site) {
		*freed++
		for _, b := range s.buckets {
			for _, c := range b.chunks {
				for i := range c {
					c[i] = Poisoned
				}
			}
		}
	}
	return freed
}

// OnNew has f see every machine New makes (core's are out of reach
// otherwise) until the returned function is called.
func OnNew(f func(*Machine)) (restore func()) {
	onNew = f
	return func() { onNew = nil }
}

// SitesMade is the number of sites m has allocated: an exchange that
// fills one again in place does not add to it.
func SitesMade(m *Machine) int { return m.made }

// SitesHeld is the number of sites m holds now.
func SitesHeld(m *Machine) int { return len(m.sites) }

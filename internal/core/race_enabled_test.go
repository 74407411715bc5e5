//go:build race

package core

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops items at random: allocation counts
// that depend on a warm pool are checked in a plain build only.
const raceEnabled = true

//go:build race

package cluster

// raceEnabled reports whether this test binary was built with the race
// detector, under which a clustered ECL-ring point costs tens of seconds.
const raceEnabled = true

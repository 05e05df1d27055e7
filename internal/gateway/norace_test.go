//go:build !race

package gateway

// raceEnabled: under the race detector sync.Pool drops a share of what is put
// back, so allocation budgets do not hold.
const raceEnabled = false

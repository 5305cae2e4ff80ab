//go:build race

package task

// raceEnabled reports whether the tests run under the race detector,
// whose sync.Pool drops a random share of the items put back, so the
// pooled DAG scratch allocates and allocation counts mean nothing.
const raceEnabled = true

//go:build race

package aggview_test

// raceDetector reports that the race detector is on: sync.Pool then
// drops a share of what is put back, so pooled memory is reallocated and
// allocation guards measure the detector, not the code.
const raceDetector = true

//go:build !race

package aggview_test

const raceDetector = false

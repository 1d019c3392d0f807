//go:build !race

package xmldoc_test

const raceDetectorEnabled = false

//go:build race

package xmldoc_test

// raceDetectorEnabled reports whether the race detector is compiled in.
// sync.Pool intentionally drops a fraction of Puts under the detector, so
// the allocation guard skips there, and the mutation test runs shorter.
const raceDetectorEnabled = true

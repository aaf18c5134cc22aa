package service

import (
	"testing"

	"biochip/internal/assay"
)

// Exports for the external surface test (surface_test.go), which needs
// the federation package and so cannot live inside this one.

// NewParkedService builds a one-shard service on the 40×40 test die
// whose runner holds every job until release closes: the first job
// stays running and the depth-bounded queue fills behind it.
func NewParkedService(t *testing.T, depth int, release <-chan struct{}) *Service {
	return newFakeService(t, 1, depth, func(*shard, *Job) { <-release })
}

// SmallProgram is the small capture/scan/gather program of this
// package's tests.
func SmallProgram(cells int) assay.Program { return testProgram(cells) }

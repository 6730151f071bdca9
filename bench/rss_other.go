//go:build !linux

package main

import "runtime"

// peakRSSMiB falls back to the memory the Go runtime has obtained from
// the OS where getrusage's units are not the ones Linux uses.
func peakRSSMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

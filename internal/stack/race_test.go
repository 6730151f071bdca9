//go:build race

package stack

// raceBuild reports a -race build, in which testing.AllocsPerRun is not
// a table's own count.
const raceBuild = true

//go:build !linux

package main

// pin is a no-op where the benchmark cannot set thread affinity.
func pin(int) {}

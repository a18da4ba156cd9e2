//go:build race

package main

// The race detector slows the smoke run several-fold.
func init() { smokeLimit = 0 }

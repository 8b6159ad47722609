// Package protectiontest provides helpers for tests that need a masking
// method.
package protectiontest

import "evoprot/internal/protection"

// Must is protection.Parse that panics on error; for statically-known
// specs.
func Must(spec string) protection.Method {
	m, err := protection.Parse(spec)
	if err != nil {
		panic(err)
	}
	return m
}

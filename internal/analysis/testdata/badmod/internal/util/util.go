// Package util is clean: it exists so the fixture module exercises
// module-local imports and a package with no findings.
package util

// Identity returns its argument.
func Identity[T any](v T) T { return v }

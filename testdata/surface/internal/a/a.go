// Package a declares the names the scanner must classify.
package a

// T is reached from main.
type T struct{}

// HasOutput has no caller; package b spells the same name on a type of its
// own, which a match by spelling would take for a use.
func (T) HasOutput() bool { return false }

// Shape is reached only by converting T to b.Shaper and calling through it.
func (T) Shape() int { return 1 }

// String is called by fmt, which no identifier in the module spells.
func (T) String() string { return "T" }

// BenchOnly is reached only from bench/.
func (T) BenchOnly() {}

// G is a generic type.
type G[X any] struct{ x X }

// Gen is reached only through an instantiation of G.
func (g G[X]) Gen() X { return g.x }

func deadHelper() int { return deadHelper() }

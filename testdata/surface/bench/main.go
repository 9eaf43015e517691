package main

import "fixture/internal/a"

func main() { a.T{}.BenchOnly() }

package bench

import "fixture/internal/a"

func run() { a.BenchOnly() }

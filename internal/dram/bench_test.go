// Benchmark delegates to internal/perf so `go test -bench`, benchjson,
// and perfgate all measure the same body under the same name. This file
// lives in the external test package because perf imports dram.
package dram_test

import (
	"testing"

	"ftlhammer/internal/perf"
)

func BenchmarkDRAMBatch(b *testing.B)   { perf.BenchDRAMBatch(b) }
func BenchmarkDRAMAmplify(b *testing.B) { perf.BenchDRAMAmplify(b) }

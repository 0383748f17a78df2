// The benchmark is a module of its own so that it builds with its own
// build file; the import path keeps the sampleunion/ prefix, which is
// what lets it import sampleunion/internal/... packages.
module sampleunion/benchmark

go 1.24

require sampleunion v0.0.0

replace sampleunion => ../

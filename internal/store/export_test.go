package store

// PersistBatch exposes the writer goroutine's per-batch work to the external
// test package, so benchmarks can time it on the calling goroutine.
var PersistBatch = (*Sink).persist

package engine

// ChipFPCount returns the number of chips the cache-key fingerprint
// memo holds.
func ChipFPCount() int64 { return chipFPCount.Load() }

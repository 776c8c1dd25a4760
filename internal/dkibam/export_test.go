package dkibam

// ResetDiscCache empties the shared table cache, so a test can race the
// first builds of each key.
func ResetDiscCache() {
	discCache.Lock()
	discCache.m = nil
	discCache.Unlock()
}

package ufs

// CacheHitRate reports the buffer cache hit fraction (0 with no lookups).
func (fs *FS) CacheHitRate() float64 {
	total := fs.CacheHits + fs.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(fs.CacheHits) / float64(total)
}

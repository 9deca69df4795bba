package fleet

// CountSyncs runs fn and returns how many times Run settled every host
// before a placement while fn ran; the final drain is not counted. It
// swaps a package-level hook, so callers must not run in parallel.
func CountSyncs(fn func()) int {
	n := 0
	onSync = func() { n++ }
	defer func() { onSync = nil }()
	fn()
	return n
}

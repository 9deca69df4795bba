package sim

// DrainPerAccess runs e to completion through linearStep: the seed's
// linear argmin, scanning and syncing the kernel on every access. It is
// the per-access reference the external driver differential compares
// the bursting drivers against.
func DrainPerAccess(e *Engine) error {
	for {
		more, err := linearStep(e)
		if err != nil || !more {
			return err
		}
	}
}

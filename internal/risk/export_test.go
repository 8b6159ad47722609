package risk

// SharedOf returns the original-only summaries a delta state of the
// battery points at (its idOrig, dbrlOrig, prlOrig or rsrlOrig), or nil
// for any other state: the bind tests compare them by pointer.
func SharedOf(st State) any {
	switch s := st.(type) {
	case *idState:
		return s.idOrig
	case *dbrlState:
		return s.dbrlOrig
	case *prlState:
		return s.prlOrig
	case *rsrlState:
		return s.rsrlOrig
	}
	return nil
}

package infoloss

// SharedOf returns the original-only summaries a delta state of the
// battery points at (its ctbilOrig, fileOrig or mlOrig), or nil for any
// other state: the bind tests compare them by pointer.
func SharedOf(st State) any {
	switch s := st.(type) {
	case *ctbilState:
		return s.ctbilOrig
	case *dbilState:
		return s.fileOrig
	case *ebilState:
		return s.fileOrig
	case *mlState:
		return s.o
	}
	return nil
}

package dataset

// BytesPerCell returns the bytes one cell of d takes.
func BytesPerCell(d *Dataset) int {
	if d.schema.wide {
		return 4
	}
	return 1
}

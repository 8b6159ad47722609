package dataset

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadCSV checks that arbitrary input never panics the reader and
// that anything it accepts survives a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\nx,y\n")
	f.Add("a,b\nx,y\nz,w\n")
	f.Add("h\nv\n")
	f.Add("")
	f.Add("a,a\n1,2\n")
	f.Add("a,b\n\"q,uoted\",y\n")
	f.Add("a\n\n")
	// A 300-category column: four bytes per cell.
	var wide strings.Builder
	wide.WriteString("id,k\n")
	for i := range 300 {
		fmt.Fprintf(&wide, "%d,%d\n", i, i%2)
	}
	f.Add(wide.String())
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted dataset fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted dataset fails to serialize: %v", err)
		}
		back, err := ReadCSVWithSchema(bytes.NewReader(buf.Bytes()), d.Schema())
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !d.Equal(back) {
			t.Fatal("round trip changed data")
		}
	})
}

package islands

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"evoprot/internal/core"
)

// TestSnapshotMatchesEncodedDocument pins the document Runner.Snapshot
// writes in place to the bytes a json.Encoder gives for a snapshotJSON
// carrying each engine's snapshot as a json.RawMessage, for a homogeneous
// run (version 1) and a run with per-island overrides (version 4). The
// initial origins carry characters the encoder escapes.
func TestSnapshotMatchesEncodedDocument(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		version int
	}{
		{"homogeneous", Config{Islands: 2, MigrateEvery: 5, Engine: core.Config{Generations: 12, Seed: 3}}, 1},
		{"per-island", heteroConfig(12), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eval, pop := testPopulation(t)
			for _, ind := range pop {
				ind.Origin += "<&>\u2028"
			}
			r, err := New(context.Background(), eval, pop, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := r.Snapshot(&got); err != nil {
				t.Fatal(err)
			}

			want := snapshotJSON{Version: tc.version, Islands: len(r.engines), Configs: r.cfg.PerIsland}
			for _, e := range r.engines {
				var buf bytes.Buffer
				if err := e.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				want.Engines = append(want.Engines, json.RawMessage(buf.Bytes()))
			}
			var wantBuf bytes.Buffer
			if err := json.NewEncoder(&wantBuf).Encode(want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), wantBuf.Bytes()) {
				t.Fatalf("in-place document differs from the encoded one (%d vs %d bytes)", got.Len(), wantBuf.Len())
			}
			if !bytes.Contains(got.Bytes(), []byte(`\u003c\u0026\u003e\u2028"`)) {
				t.Fatal("escaped origin missing: no engine document carries it")
			}
			if _, err := Resume(eval, bytes.NewReader(got.Bytes()), Config{Engine: core.Config{Generations: 1}}); err != nil {
				t.Fatalf("document does not resume: %v", err)
			}
		})
	}
}

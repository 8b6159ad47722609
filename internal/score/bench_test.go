package score_test

import (
	"math/rand/v2"
	"testing"

	"evoprot/internal/datagen"
	"evoprot/internal/datagen/datagentest"
	"evoprot/internal/protection/protectiontest"
	"evoprot/internal/score"
)

// BenchmarkEvaluatorPreparePaperScale times one Evaluator.Prepare, the
// delta state of one individual under the paper's battery, on the
// paper-scale flare, german and adult files. The evaluator binds every
// measure once, outside the loop, so a Prepare builds only the summaries
// of the masked file; its allocs/op and B/op rise if states go back to
// rebuilding the original file's.
func BenchmarkEvaluatorPreparePaperScale(b *testing.B) {
	for _, name := range []string{"flare", "german", "adult"} {
		orig := datagentest.MustByName(name, 0, 5)
		names, _ := datagen.ProtectedAttrs(name)
		attrs, err := orig.Schema().Indices(names...)
		if err != nil {
			b.Fatal(err)
		}
		eval, err := score.NewEvaluator(orig, attrs, score.Config{})
		if err != nil {
			b.Fatal(err)
		}
		masked, err := protectiontest.Must("pram:theta=0.7").Protect(orig, attrs, rand.New(rand.NewPCG(5, 5)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			// One Prepare before timing warms the pooled grouping
			// scratch, so allocs/op does not depend on what ran before.
			if _, err := eval.Prepare(masked); err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				if _, err := eval.Prepare(masked); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

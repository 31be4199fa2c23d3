package macros

import (
	"math/rand"
	"testing"

	"repro/internal/digital"

	"repro/internal/layout"
	"repro/internal/process"
)

// biasLineX extracts the x position of each bias net's vertical metal2
// distribution line.
func biasLineX(t *testing.T, cell *layout.Cell) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, s := range cell.Shapes {
		if s.Layer != process.Metal2 {
			continue
		}
		switch s.Net {
		case "vbn1", "vbn2", "vbp1", "vbp2":
			if s.Rect.H() > s.Rect.W() { // the vertical line
				out[s.Net] = s.Rect.Center().X
			}
		}
	}
	if len(out) != 4 {
		t.Fatalf("bias lines found: %v", out)
	}
	return out
}

// faultNone returns the fault-free digital fault value.
func faultNone() digital.Fault { return digital.Fault{} }

// newTestRng returns a deterministic rand source for variation tests.
func newTestRng() *rand.Rand { return rand.New(rand.NewSource(7)) }

// decodeLevels runs the decoder's all-levels sweep under f on a scratch
// of its own and returns each input level's output code.
func decodeLevels(t *testing.T, m *DecoderMacro, f digital.Fault) ([]int, bool) {
	t.Helper()
	d := m.scratch.Get().(*decodeScratch)
	iddq, err := m.decodeAll(d, f)
	if err != nil {
		t.Fatal(err)
	}
	return d.codes, iddq
}

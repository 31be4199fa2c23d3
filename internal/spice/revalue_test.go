package spice

import (
	"testing"

	"repro/internal/netlist"
)

// TestRevalueKeepsASideRecording pins Engine.Revalue's invalidation
// rule: a revalue that moves only source waveforms keeps the recorded
// A-side stamps, one that moves a resistance drops them, and either way
// the engine stamps the same system as a fresh build of the source.
func TestRevalueKeepsASideRecording(t *testing.T) {
	cases := []struct {
		name     string
		edit     func(*netlist.Circuit)
		keepsRec bool
	}{
		{"waveform only", func(c *netlist.Circuit) {
			c.Element("vin").(*netlist.VSource).W = netlist.DC(3)
			c.Element("ib").(*netlist.ISource).W = netlist.DC(5e-6)
		}, true},
		{"resistance", func(c *netlist.Circuit) {
			c.Element("rl").(*netlist.Resistor).R = 3300
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(assembleTestCircuit().C, DefaultOptions())
			// Record the DC A side, so the revalue has a recording to keep.
			e.StampChecksum(netlist.DCOp, 0, 0)
			if !e.recValid {
				t.Fatal("no A-side recording after a stamp")
			}

			src := assembleTestCircuit().C
			tc.edit(src)
			if err := e.Revalue(src); err != nil {
				t.Fatal(err)
			}
			if e.recValid != tc.keepsRec {
				t.Fatalf("A-side recording kept = %v, want %v", e.recValid, tc.keepsRec)
			}

			ref := assembleTestCircuit().C
			tc.edit(ref)
			fresh := New(ref, DefaultOptions())
			for _, chk := range []struct {
				mode  netlist.StampMode
				t, dt float64
			}{{netlist.DCOp, 0, 0}, {netlist.Transient, 12e-9, 1e-10}} {
				if got, want := e.StampChecksum(chk.mode, chk.t, chk.dt), fresh.StampChecksum(chk.mode, chk.t, chk.dt); got != want {
					t.Fatalf("mode %v: revalued checksum %016x != fresh %016x", chk.mode, got, want)
				}
			}
		})
	}
}

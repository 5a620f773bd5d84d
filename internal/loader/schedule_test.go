package loader

import (
	"testing"

	"fgpsim/internal/machine"
	"fgpsim/internal/minic"
)

// TestUnmarshalRejectsCorruptSchedule: an image file arrives from disk, so
// a schedule that points outside its blocks, or a static image without
// one, must fail to decode instead of sending the engine out of bounds.
func TestUnmarshalRejectsCorruptSchedule(t *testing.T) {
	p, err := minic.Compile("t.mc", `int main() { int i; int s = 0; for (i = 0; i < 9; i++) s += i; putc('a' + s % 26); return 0; }`, minic.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	im, _ := machine.IssueModelByID(8)
	mc, _ := machine.MemConfigByID('A')
	cfg := machine.Config{Disc: machine.Static, Issue: im, Mem: mc, Branch: machine.SingleBB}
	corrupt := map[string]func(img *Image){
		"node index past the terminator": func(img *Image) { img.Schedule.nodes[0] = 1 << 20 },
		"word range past the words":      func(img *Image) { img.Schedule.blocks[len(img.Schedule.blocks)-1]++ },
		"block range past the words":     func(img *Image) { img.Schedule.blocks[1] = 1 << 20 },
		"word past the nodes":            func(img *Image) { img.Schedule.words[1] = 1 << 20 },
		"assert bit on a plain block":    func(img *Image) { img.Schedule.assert[0] ^= 1 },
		"static image without schedule":  func(img *Image) { img.Schedule = nil },
	}
	for name, breakIt := range corrupt {
		img, err := Load(p, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := img.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(data); err != nil {
			t.Fatalf("%s: intact image does not decode: %v", name, err)
		}
		breakIt(img)
		if data, err = img.Marshal(); err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

package fault_test

import (
	"reflect"
	"testing"

	"darpanet/internal/fault"
)

// FuzzScheduleParse: any schedule text is either refused or parses to a
// schedule whose String parses back to the same schedule — the rendering
// loses nothing Arm reads, flaps and timed storms included.
func FuzzScheduleParse(f *testing.F) {
	for _, name := range fault.PresetNames() {
		s, _ := fault.Preset(name)
		f.Add(s.String())
	}
	f.Add("# comment\n5s cut n1 # trailing\n\n20s ifdown gwB 1\n22s ifup gwB 1e0\n70s storm lanB 0.4 5s\n75s calm lanB\n")
	f.Add("1.5s storm n1 1e-05\n0s flap n2 100 1ns\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := fault.Parse("fuzz", text)
		if err != nil {
			return
		}
		back, err := fault.Parse("fuzz", s.String())
		if err != nil {
			t.Fatalf("%q parses to\n%s\nwhich is refused: %v", text, s, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("%q parses to\n%s\nwhich parses to\n%s", text, s, back)
		}
	})
}

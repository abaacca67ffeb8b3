package config_test

import (
	"testing"

	"repro/internal/config"
)

// FuzzParse feeds arbitrary text to the configuration parser. Parse must
// never panic — every malformed input ends in a labeled error — and any
// text it accepts must print to a fixed point: printing, re-parsing and
// re-printing reproduces the first printing byte for byte.
func FuzzParse(f *testing.F) {
	for _, text := range config.Figure2aConfigs() {
		f.Add(text)
	}
	f.Add("router ospf 0\n redistribute")
	f.Add("hostname r\nrouter bgp 65000\n neighbor 10.0.0.2 remote-as 65001\n redistribute connected\n")
	f.Add("hostname r\ninterface e0\n ip address 10.0.0.1 255.255.255.0\n ip access-group A in\nip access-list extended A\n deny ip 10.1.0.0 0.0.255.255 any\n permit ip any any\n")
	f.Fuzz(func(t *testing.T, text string) {
		c, err := config.Parse("fuzz.cfg", text)
		if err != nil {
			if _, ok := err.(*config.ParseError); !ok {
				t.Fatalf("unlabeled error %T: %v", err, err)
			}
			return
		}
		printed := c.Print()
		c2, err := config.Parse("fuzz.cfg", printed)
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\n%s", err, printed)
		}
		if again := c2.Print(); again != printed {
			t.Fatalf("printing is not a fixed point:\n--- first ---\n%s--- second ---\n%s", printed, again)
		}
	})
}

package replay

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReplayDecode feeds arbitrary bytes to Decode, seeded with the
// committed golden journal. Decode must never panic, and a journal it
// accepts must survive Encode → Decode unchanged.
func FuzzReplayDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_seed1.journal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(FormatVersion + "\nrun kind=fleet seed=-3 tags=1 events=0 span=1.5s\nend\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(j.Encode())
		if err != nil {
			t.Fatalf("re-encoded journal rejected: %v\n%s", err, j.Encode())
		}
		if !reflect.DeepEqual(j, again) {
			t.Fatalf("journal changed on a round trip:\n got %+v\nwant %+v", again, j)
		}
	})
}

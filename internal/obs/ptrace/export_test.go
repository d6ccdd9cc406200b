package ptrace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadJSONL feeds arbitrary bytes to ReadJSONL. It must never
// panic, every event it accepts must carry one of the seven stages, and
// an accepted stream written back by WriteJSONL must read back equal.
func FuzzReadJSONL(f *testing.F) {
	r := New(Config{})
	fill(r, 2, 2, 2)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Drain()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"seq":0,"t_us":0,"shard":0,"tag":0,"pkt":0,"proto":"BLE","stage":"bogus"}`))
	f.Add([]byte(`{"stage":7}`))
	f.Add([]byte(`{"stage":null}` + "\n" + `{"seq":1,"stage":"outcome","detail":"delivered"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, ev := range evs {
			if int(ev.Stage) >= len(stageNames) {
				t.Fatalf("event %d accepted with stage %d", i, ev.Stage)
			}
		}
		var out bytes.Buffer
		if err := WriteJSONL(&out, evs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&out)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(evs, back) {
			t.Fatalf("stream changed on a round trip:\n got %+v\nwant %+v", back, evs)
		}
	})
}

package rec

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// sampleRecording is a small cleanly closed recording: two sources, a
// histogram whose p99 breaches and recovers, an event, and a footer.
func sampleRecording(t testing.TB) []byte {
	reg, a, _, h := testSource()
	r, err := New(Config{Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddSource("dev", reg); err != nil {
		t.Fatal(err)
	}
	slo, err := ParseSLO("p99(dev/lat) <= 50")
	if err != nil {
		t.Fatal(err)
	}
	r.SetSLO(slo)
	var buf bytes.Buffer
	r.SetWriter(&buf)
	r.Start(0)
	*a = 3
	h.Record(7)
	r.Roll(100)
	h.Record(4000)
	r.Event(150, "node_down", "n1", "", 1)
	r.Roll(200)
	*a = 9
	r.Flush(250)
	return buf.Bytes()
}

// TestReadHugeLengthPrefix: a length prefix larger than the data left is
// an incomplete tail, not an index computation that overflows.
func TestReadHugeLengthPrefix(t *testing.T) {
	const crasher = "9223372036854775807\n{}\n"
	if _, err := Read([]byte(crasher)); err == nil {
		t.Error("headerless crasher accepted")
	}
	whole := sampleRecording(t)
	rc, err := Read(append(whole[:len(whole):len(whole)], crasher...))
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Clean || !rc.Truncated || len(rc.Windows) != 3 {
		t.Errorf("clean=%v truncated=%v windows=%d, want the clean prefix plus a truncated tail",
			rc.Clean, rc.Truncated, len(rc.Windows))
	}
}

// TestParserFollowsAppends: frames become visible as the bytes that
// complete them arrive, and the parser is Done at the footer.
func TestParserFollowsAppends(t *testing.T) {
	whole := sampleRecording(t)
	var p Parser
	if _, err := p.Recording(); err == nil {
		t.Error("empty parser has a recording")
	}
	split := bytes.Index(whole, []byte(`{"k":"w","i":1`)) + 3
	p.Write(whole[:split])
	rc, err := p.Recording()
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Windows) != 1 || !rc.Truncated || p.Done() {
		t.Errorf("mid-frame: windows=%d truncated=%v done=%v, want 1/true/false",
			len(rc.Windows), rc.Truncated, p.Done())
	}
	p.Write(whole[split:])
	if rc, _ = p.Recording(); len(rc.Windows) != 3 || rc.Truncated || !p.Done() {
		t.Errorf("whole: windows=%d truncated=%v done=%v, want 3/false/true",
			len(rc.Windows), rc.Truncated, p.Done())
	}
}

// FuzzRead: no input panics the reader; once a header has parsed, no
// later byte turns the recording into an error; and feeding the bytes
// to a Parser in random chunks yields exactly what one Read does.
func FuzzRead(f *testing.F) {
	f.Add(sampleRecording(f), int64(1))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		want, wantErr := Read(data)
		if (want == nil) == (wantErr == nil) {
			t.Fatalf("Read returned recording %v with error %v", want != nil, wantErr)
		}

		rng := rand.New(rand.NewSource(seed))
		var p Parser
		header := false
		for pos := 0; pos < len(data); {
			n := min(len(data)-pos, 1+rng.Intn(64))
			p.Write(data[pos : pos+n])
			pos += n
			_, err := p.Recording()
			if header && err != nil {
				t.Fatalf("error after the header parsed: %v", err)
			}
			header = err == nil
		}
		got, gotErr := p.Recording()
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("chunked error %v, Read error %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunked parse differs from Read:\n%+v\n%+v", got, want)
		}
	})
}

package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLogRecovery writes arbitrary bytes as a log file and opens them as the
// job log and as an evaluation journal. Neither open may panic, and after one
// append, a close and a reopen, the appended record is present and every
// record the first open decoded decodes the same way again.
//
//	go test -run '^$' -fuzz FuzzLogRecovery -fuzztime 20s ./internal/fleet
func FuzzLogRecovery(f *testing.F) {
	done := `{"id":"FFT@classA","app":"FFT","device_class":"classA","state":"done","attempts":1}` + "\n"
	journal := `{"fp":1,"mean_ms":1.5,"size_bytes":1,"binary_hash":31}` + "\n" +
		`{"fp":2,"outcome":3,"times_ms":[2,3],"mean_ms":3,"size_bytes":2,"binary_hash":62}` + "\n"
	f.Add([]byte(done + `{"id":"FFT@classA","state":"fai`)) // torn job record
	f.Add([]byte(journal + `{"fp":3,"mean_ms":4.5,"si`))    // torn journal tail
	f.Add([]byte{})
	f.Add([]byte(done + "{garbage\n" + journal))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		js, err := OpenJobStore(path)
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := js.Ensure("fuzz", "class")
		if err == nil {
			_, err = js.Transition(j.ID, JobFailed, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		want := js.All()
		js.Close()
		if js, err = OpenJobStore(path); err != nil {
			t.Fatal(err)
		}
		got := js.All()
		js.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job log after append and reopen:\n got %+v\nwant %+v", got, want)
		}

		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fj, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		fp := uint64(1)
		for _, ok := fj.Lookup(fp); ok; _, ok = fj.Lookup(fp) {
			fp++
		}
		fj.Record(fp, evalForTest(fp))
		fj.Close()
		fj2, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		fj2.Close()
		if !reflect.DeepEqual(fj2.evs, fj.evs) || fj2.Prior() != len(fj.evs) {
			t.Fatalf("journal after append and reopen: %v, want %v", fj2.evs, fj.evs)
		}
	})
}

package dist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadMasterIndex feeds arbitrary bytes to the master index decoder
// behind ReadMasterIndex, the document `certify inspect` opens a whole
// campaign from. It must never panic, and must either refuse the bytes
// with an ErrMalformedMasterIndex error or return an index that encodes
// and decodes back to the same value and the same bytes. The seeds are
// real fan-out indexes (fixed-N and adaptive, in testdata) and one built
// over synthetic shards.
func FuzzReadMasterIndex(f *testing.F) {
	for _, name := range []string{"master-index-fig3.json", "master-index-fig3-adaptive.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	dir := f.TempDir()
	spec := synthSpec(8, 2)
	var shards []string
	for i := range spec.Shards {
		path := filepath.Join(dir, fmt.Sprintf("shard-%02d.jsonl", i))
		writeSyntheticShard(f, path, spec, i)
		shards = append(shards, path)
	}
	path := filepath.Join(dir, MasterIndexFileName)
	if _, err := WriteMasterIndexFile(path, shards); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"schema":1,"runs":1,"shards":[{}],"outcomes":null}`))
	f.Add([]byte(`{"schema":99,"runs":1,"shards":[{}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		mi, err := decodeMasterIndex(data)
		if err != nil {
			if mi != nil || !errors.Is(err, ErrMalformedMasterIndex) {
				t.Fatalf("decodeMasterIndex returned index %v with untyped error %v", mi != nil, err)
			}
			return
		}
		enc, err := encodeMasterIndex(mi)
		if err != nil {
			t.Fatalf("decoded index does not encode: %v", err)
		}
		back, err := decodeMasterIndex(enc)
		if err != nil {
			t.Fatalf("encoded index does not decode: %v\n%s", err, enc)
		}
		again, err := encodeMasterIndex(back)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mi, back) || !bytes.Equal(enc, again) {
			t.Fatalf("index does not round-trip:\n%s\nvs\n%s", enc, again)
		}
	})
}

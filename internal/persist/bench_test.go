package persist

import (
	"path/filepath"
	"testing"
)

func benchPayload() []byte {
	return make([]byte, 4096)
}

func BenchmarkMemStorePutGet(b *testing.B) {
	s := NewMemStore()
	data := benchPayload()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("slot", data); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Get("slot"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWAL opens a WAL for the one-writer figures DESIGN.md §15 quotes
// (the 8-writer group-commit figure is BenchmarkWALPut in the root package).
func benchWAL(b *testing.B) *WALStore {
	b.Helper()
	s, err := NewWALStore(filepath.Join(b.TempDir(), "wal"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func BenchmarkWALStorePut(b *testing.B) {
	s := benchWAL(b)
	data := benchPayload()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("slot", data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALStoreGet(b *testing.B) {
	s := benchWAL(b)
	data := benchPayload()
	if err := s.Put("slot", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("slot"); err != nil {
			b.Fatal(err)
		}
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a benchmark counts what the handler allocates, not a
// recorder's growth.
type discardWriter struct {
	header http.Header
	code   int
	bytes  int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { w.bytes += len(b); return len(b), nil }

// BenchmarkSampleHandler serves a seeded POST /sample on a warm session
// through Handler(): body decode, registry lookup, the draw, the reply's
// encoding and its write.
func BenchmarkSampleHandler(b *testing.B) {
	h := New(Config{}).Handler()
	for _, n := range []int{16, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			seed := int64(1)
			body, err := json.Marshal(sampleRequest{Union: quickDecl(), N: n, Seed: &seed})
			if err != nil {
				b.Fatal(err)
			}
			w := &discardWriter{header: http.Header{}}
			serve := func() {
				req, err := http.NewRequest(http.MethodPost, "/sample", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				clear(w.header)
				w.code, w.bytes = 0, 0
				h.ServeHTTP(w, req)
			}
			serve() // warms the session and the pools
			if w.code != http.StatusOK || w.bytes < n {
				b.Fatalf("status %d, %d bytes", w.code, w.bytes)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fakeWorker serves a fixed /simulate reply body for transport-level
// hostile-reply tests.
func fakeWorker(t *testing.T, body []byte, truncateAt int) *HTTP {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != simulatePath {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", wireContentType)
		if truncateAt > 0 && truncateAt < len(body) {
			// Advertise the full length, send a prefix, then die: the
			// client sees a truncated body mid-frame.
			w.Header().Set("Content-Length", itoa(len(body)))
			w.Write(body[:truncateAt])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return NewHTTP(srv.URL)
}

func itoa(n int) string {
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestSimulateRejectsTruncatedReply(t *testing.T) {
	body := encodeResult(&ShardResult{Shard: 1, Attempt: 1, Worker: "w", Detections: []Detection{}})
	tr := fakeWorker(t, body, len(body)/2)
	_, err := tr.Simulate(context.Background(), &ShardRequest{Shard: 1, Attempt: 1})
	if err == nil {
		t.Fatal("truncated reply accepted")
	}
	// A torn body fails at the transport read or the frame decode — either
	// way the shard errors and the retry machinery takes over.
	if !strings.Contains(err.Error(), "reply") {
		t.Errorf("error does not blame the reply: %v", err)
	}
}

func TestSimulateRejectsOversizedReply(t *testing.T) {
	old := MaxReplyBytes
	MaxReplyBytes = 64
	defer func() { MaxReplyBytes = old }()

	huge := encodeResult(&ShardResult{Shard: 1, Attempt: 1, Worker: strings.Repeat("w", 200), Detections: []Detection{}})
	tr := fakeWorker(t, huge, 0)
	_, err := tr.Simulate(context.Background(), &ShardRequest{Shard: 1, Attempt: 1})
	if err == nil || !strings.Contains(err.Error(), "exceeds 64-byte limit") {
		t.Fatalf("oversized reply accepted: %v", err)
	}
}

func TestSimulateAcceptsReplyAtLimit(t *testing.T) {
	body := encodeResult(&ShardResult{Shard: 1, Attempt: 1, Worker: "w", Detections: []Detection{}})
	old := MaxReplyBytes
	MaxReplyBytes = int64(len(body))
	defer func() { MaxReplyBytes = old }()

	tr := fakeWorker(t, body, 0)
	res, err := tr.Simulate(context.Background(), &ShardRequest{Shard: 1, Attempt: 1})
	if err != nil {
		t.Fatalf("exact-limit reply rejected: %v", err)
	}
	if res.Shard != 1 || res.Worker != "w" {
		t.Fatalf("reply: %+v", res)
	}
}

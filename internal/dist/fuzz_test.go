package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"synapse/internal/httpsvc"
)

// FuzzCompileRequest drives /v1/compile — decoder plus sessions.compile —
// through the real handler stack with arbitrary bodies. Whatever arrives, the
// worker must not panic and must answer either a structured invalid/too_large
// refusal or a 200 echoing the seed of the spec it was sent; compiling the
// same body again (a duplicate session) must answer the same. The committed
// seeds under testdata/fuzz/ cover a truncated body, a profile/workload count
// mismatch, a nil profile, a legacy body still carrying "shards", a spec
// declaring 10⁹ instances, which must stay as cheap as any other, and a
// cluster block declaring 10⁹ nodes, which cluster.MaxNodes refuses.
func FuzzCompileRequest(f *testing.F) {
	f.Add([]byte(`{"session":"s"}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(nil))
	srv := NewServer(ServerConfig{Workers: 1})
	post := func(body []byte) (int, []byte) {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
		return w.Code, w.Body.Bytes()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var sent CompileRequest
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&sent) == nil // as the handler decodes: first value only
		status, resp := post(body)
		if again, _ := post(body); again != status {
			t.Fatalf("recompiling the same body answered %d, then %d", status, again)
		}
		if status == http.StatusOK {
			var cr CompileResponse
			if err := json.Unmarshal(resp, &cr); err != nil {
				t.Fatalf("200 with an undecodable body %q: %v", resp, err)
			}
			if !decoded || sent.Spec == nil || cr.Seed != sent.Spec.Seed || cr.Session != sent.Session {
				t.Fatalf("200 echoing session %q seed %d for body %q", cr.Session, cr.Seed, body)
			}
			return
		}
		er, ok := httpsvc.DecodeError(resp)
		if !ok || (er.Code != CodeInvalid && er.Code != httpsvc.CodeTooLarge) {
			t.Fatalf("status %d with body %q, want a structured %s or %s", status, resp, CodeInvalid, httpsvc.CodeTooLarge)
		}
	})
}

// TestCompileRefusesBillionNodes puts the cluster-billion-nodes seed on the
// clock: one count field asking for 10⁹ nodes is refused as invalid, naming
// the cap, before anything is expanded.
func TestCompileRefusesBillionNodes(t *testing.T) {
	data, err := os.ReadFile("testdata/fuzz/FuzzCompileRequest/cluster-billion-nodes")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "\n") // after the "go test fuzz v1" header
	body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil || !strings.Contains(body, `"count":1000000000`) {
		t.Fatalf("seed is not the 10⁹-node body: %v\n%s", err, lit)
	}
	w := httptest.NewRecorder()
	t0 := time.Now()
	NewServer(ServerConfig{Workers: 1}).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(body)))
	if d := time.Since(t0); d > time.Second {
		t.Errorf("answering took %v, want well under a second", d)
	}
	er, ok := httpsvc.DecodeError(w.Body.Bytes())
	if w.Code != http.StatusBadRequest || !ok || er.Code != CodeInvalid || !strings.Contains(er.Error, "past 65536 nodes") {
		t.Errorf("answer = %d %s, want a structured invalid naming the node cap", w.Code, w.Body.Bytes())
	}
}

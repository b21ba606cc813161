package httpsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// Admission error codes, shared by every daemon. Clients treat 429 as
// retry-after-the-hint for any method; draining rides on 503. Services add
// their own data-path codes beside these.
const (
	CodeOverloaded = "overloaded"
	CodeDraining   = "draining"
	// CodeTooLarge rides on 413: the request body exceeded MaxBodyBytes.
	CodeTooLarge = "too_large"
)

// MaxBodyBytes bounds every admitted request body. The largest legitimate
// one is a deep profile document or the compile request carrying it (about
// 8 MB); 64 MiB leaves room to grow while keeping what one request can make
// a daemon buffer finite. Reads past the limit fail with an error that
// BodyTooLarge recognizes; services answer it with 413 and CodeTooLarge.
const MaxBodyBytes = 64 << 20

// BodyTooLarge reports whether err, from reading or decoding a request
// body, is the MaxBodyBytes limit tripping.
func BodyTooLarge(err error) bool {
	var tooLarge *http.MaxBytesError
	return errors.As(err, &tooLarge)
}

// ErrorResponse is the wire form of a failed request. The code, not the
// message, is the contract: clients rebuild their sentinel errors from it.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// DecodeError is the client half of the envelope: it parses the body of a
// failed response. ok is false when the body is not an envelope (a proxy's
// error page, a cut connection); Error then carries the trimmed body so the
// caller can still say what came back.
func DecodeError(body []byte) (er ErrorResponse, ok bool) {
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		return ErrorResponse{Error: string(bytes.TrimSpace(body))}, false
	}
	return er, true
}

// RetryAfter parses a Retry-After header, delta-seconds or HTTP-date, into
// the wait it asks for (0 when absent, malformed or already past).
func RetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

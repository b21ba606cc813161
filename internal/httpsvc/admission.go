package httpsvc

import (
	"net/http"
	"time"
)

// defaultQueueWait bounds how long an admitted-but-queued request may wait
// for an execution slot when no RequestTimeout is configured.
const defaultQueueWait = time.Second

// Policy is a service's verdict on one data-path request (Service.Admit).
// The zero value admits the request like any other.
type Policy struct {
	// Code, when set, refuses the request with 503 and this error code
	// before it takes a slot — a degraded mode such as storesrv's
	// read-only. Msg is the error text.
	Code, Msg string
	// NoQueue sheds the request with 429 at capacity instead of parking it
	// in the admission queue.
	NoQueue bool
}

// admit reserves an execution slot, queueing briefly when the server is
// saturated. It returns release=nil when the request was shed (the
// response has already been written).
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func()) {
	if s.draining.Load() {
		s.shedResponse(w, http.StatusServiceUnavailable, CodeDraining, s.svc.Subject+" is draining")
		return nil
	}
	var pol Policy
	if s.svc.Admit != nil {
		if pol = s.svc.Admit(r); pol.Code != "" {
			s.shedResponse(w, http.StatusServiceUnavailable, pol.Code, pol.Msg)
			return nil
		}
	}
	if s.sem == nil {
		return func() {}
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }
	default:
	}
	if pol.NoQueue || !s.await(r) {
		s.shedResponse(w, http.StatusTooManyRequests, CodeOverloaded, s.svc.Subject+" is at capacity")
		return nil
	}
	return func() { <-s.sem }
}

// await parks a request in the admission queue until an execution slot
// frees up, the caller gives up, or the wait budget burns down. True means
// a semaphore slot was acquired.
func (s *Server) await(r *http.Request) bool {
	if s.queue == nil {
		return false
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return false // queue full too
	}
	defer func() { <-s.queue }()
	wait := s.timeout
	if wait <= 0 {
		wait = defaultQueueWait
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-r.Context().Done():
		return false
	case <-t.C:
		return false
	}
}

// shedResponse refuses a request with the structured envelope and a
// Retry-After hint, counting it. One second is long enough that a retry
// lands after a transient spike, short enough that clients recover
// promptly.
func (s *Server) shedResponse(w http.ResponseWriter, status int, code, msg string) {
	s.shed.Add(1)
	s.shedVec.With(code).Inc()
	w.Header().Set("Retry-After", "1")
	WriteJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

package server

// Fleet routing: the forwarding half of the consistent-hash job
// placement (DESIGN.md §5c). With Config.Peers set, every replica
// hashes a submission's canonical content key onto the same
// router.Ring; the owner serves it, everyone else proxies — one hop,
// never more. The proxying replica remembers which peer owns each
// forwarded job id, so the client keeps talking to the replica it
// picked: status polls, DELETE, and the SSE stream are all relayed to
// the owner transparently.
//
// Failures are typed, not bare 502s: a dead owner answers
// CodePeerUnreachable (502), a forwarded key the receiver does not own
// — peer lists disagree — answers CodeNotOwner (421 Misdirected
// Request). Backpressure passes through untouched: the owner's 503
// *and its Retry-After header* reach the client verbatim, so a
// client's backoff works identically through a proxy hop.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// forwardedHeader marks a proxied submission with the forwarding
// replica's URL. Its presence suppresses any further forwarding (one
// hop), and a receiver that does not own the key refuses with
// CodeNotOwner instead of bouncing the job around a disagreeing fleet.
const forwardedHeader = "X-Rapidsd-Forwarded"

const (
	// CodePeerUnreachable is the ErrorBody.Code of a submission (or
	// job-scoped request) whose owning replica could not be reached
	// (502 Bad Gateway). Transient while a peer restarts — clients that
	// ride out restarts retry it like a transport failure.
	CodePeerUnreachable = "peer_unreachable"
	// CodeNotOwner is the ErrorBody.Code of a *forwarded* submission
	// whose receiver does not consider itself the key's owner (421
	// Misdirected Request): the replicas' peer lists disagree. This is
	// a fleet misconfiguration, not load — never retried.
	CodeNotOwner = "not_owner"
)

// peerClient is the HTTP client for replica-to-replica calls. No
// overall timeout: SSE relays are long-lived streams, and every proxied
// call already carries the inbound request's context for cancellation.
func (s *Server) peerClient() *http.Client {
	if s.cfg.PeerClient != nil {
		return s.cfg.PeerClient
	}
	return http.DefaultClient
}

// rememberForwarded records which peer owns a job id this replica
// proxied, so later job-scoped requests relay to the right owner.
func (s *Server) rememberForwarded(id, owner string) {
	s.mu.Lock()
	s.forwarded[id] = owner
	s.mu.Unlock()
}

// forwardedOwner looks up the owner of a previously-proxied job id.
func (s *Server) forwardedOwner(id string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	owner, ok := s.forwarded[id]
	return owner, ok
}

// forwardSubmit proxies a validated submission to the owning replica
// and relays the response — status code, body, and the headers a
// client keys on (Location for the job URL, Retry-After for backoff) —
// byte for byte.
func (s *Server) forwardSubmit(w http.ResponseWriter, r *http.Request, req JobRequest, owner string) {
	body, err := json.Marshal(req)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "re-encoding request: %v", err)
		return
	}
	hreq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "building forward request: %v", err)
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardedHeader, s.cfg.SelfURL)
	resp, err := s.peerClient().Do(hreq)
	if err != nil {
		s.peerUnreachable(w, owner, err)
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		s.peerUnreachable(w, owner, err)
		return
	}
	s.metrics.routed.With(routeForwarded).Inc()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		var st JobStatus
		if json.Unmarshal(b, &st) == nil && st.ID != "" {
			s.rememberForwarded(st.ID, owner)
		}
	}
	s.logf("route: forwarded key to %s: %d", owner, resp.StatusCode)
	relayHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	w.Write(b)
}

// proxyJob relays a job-scoped request (status, cancel, events) for a
// job this replica forwarded at submission time. The response body is
// streamed with per-chunk flushes so a relayed SSE stream stays live.
// The forwarded header suppresses the receiver's own scatter lookup —
// the owner either has the job or the answer is an honest 404.
func (s *Server) proxyJob(w http.ResponseWriter, r *http.Request, owner string) {
	hreq, err := http.NewRequestWithContext(r.Context(), r.Method, owner+r.URL.RequestURI(), nil)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "building proxy request: %v", err)
		return
	}
	hreq.Header.Set(forwardedHeader, s.cfg.SelfURL)
	if id := r.Header.Get("Last-Event-ID"); id != "" {
		hreq.Header.Set("Last-Event-ID", id) // an SSE resume resumes at the owner
	}
	resp, err := s.peerClient().Do(hreq)
	if err != nil {
		s.peerUnreachable(w, owner, err)
		return
	}
	defer resp.Body.Close()
	relayHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
}

// relayUnknownJob is the job-scoped lookup-miss path in fleet mode: if
// this replica proxied the id at submission time, relay to the
// remembered owner; otherwise — a replica restarted since it forwarded
// the submission loses that map — scatter a one-hop probe to every
// peer, relearn the owner, and relay. Returns false when the id is
// nowhere, or when this request is itself a probe (the forwarded
// header breaks the recursion): the caller answers 404.
func (s *Server) relayUnknownJob(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.ring == nil {
		return false
	}
	if owner, ok := s.forwardedOwner(id); ok {
		s.proxyJob(w, r, owner)
		return true
	}
	if r.Header.Get(forwardedHeader) != "" {
		return false
	}
	owner, ok := s.findOwner(r.Context(), id)
	if !ok {
		return false
	}
	s.rememberForwarded(id, owner)
	s.logf("route: relearned owner of job %s: %s", id, owner)
	s.proxyJob(w, r, owner)
	return true
}

// findOwner probes every peer for a job id this replica cannot place.
func (s *Server) findOwner(ctx context.Context, id string) (string, bool) {
	for _, peer := range s.cfg.Peers {
		if peer == s.cfg.SelfURL {
			continue
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/jobs/"+id, nil)
		if err != nil {
			continue
		}
		hreq.Header.Set(forwardedHeader, s.cfg.SelfURL)
		resp, err := s.peerClient().Do(hreq)
		if err != nil {
			continue // a dead peer cannot be the answer right now
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return peer, true
		}
	}
	return "", false
}

// peerUnreachable answers a failed replica-to-replica call with the
// typed 502 the satellite contract requires — clients branch on the
// code, never on the message.
func (s *Server) peerUnreachable(w http.ResponseWriter, owner string, err error) {
	s.metrics.routed.With(routePeerUnreachable).Inc()
	s.logf("route: peer %s unreachable: %v", owner, err)
	writeJSON(w, http.StatusBadGateway, ErrorBody{
		Error: fmt.Sprintf("owning replica %s unreachable: %v", owner, err),
		Code:  CodePeerUnreachable,
	})
}

// relayHeaders copies the response headers a relayed client depends
// on. Retry-After is load-bearing: the owner's backpressure hint must
// survive the hop or the client's backoff degrades to blind retries.
func relayHeaders(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Location", "Retry-After", "Cache-Control"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// flushCopy streams src to w, flushing after every chunk; io.Copy
// alone would buffer a relayed SSE stream into uselessness.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the daemon's connection timeouts: without a
// read-header timeout a client that never finishes its headers holds a
// connection open forever, and without an idle timeout so does an
// abandoned keep-alive connection.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.Handler == nil {
		t.Fatal("server has no handler")
	}
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v (> 0)", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v (> 0)", hs.IdleTimeout, idleTimeout)
	}
}

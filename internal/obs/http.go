package obs

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"
)

// statusWriter captures the response code and size for logging and
// metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it supports streaming.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Instrument wraps an http.Handler with structured access logging and
// per-route request metrics: http_requests_total{route,code} counters
// and an http_request_duration_seconds{route} histogram. route is
// derived from the matched pattern when the inner handler is a
// ServeMux-routed handler, falling back to the raw path; logger may be
// nil to disable access logs.
//
// A panic in next is recovered, counted in http_panics_total{route} and
// logged as one line (to slog's default logger when logger is nil).
// The client gets a 500 if no header was written yet, which server.Router
// passes through instead of retrying the same panic on another worker;
// otherwise the response is aborted.
func Instrument(reg *Registry, logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		p, stack := serveRecovered(next, sw, r)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		// A header already on the wire cannot become a 500, and
		// http.ErrAbortHandler asks for the abort outright.
		abort := p == http.ErrAbortHandler || p != nil && sw.status != 0
		if p != nil && p != http.ErrAbortHandler {
			reg.Counter("http_panics_total", "Handler panics recovered, by route.", "route", route).Inc()
			l := logger
			if l == nil {
				l = slog.Default()
			}
			l.Error("handler panic", "method", r.Method, "path", r.URL.Path, "query", r.URL.RawQuery,
				"panic", fmt.Sprint(p), "stack", string(stack))
		}
		if p != nil && !abort {
			http.Error(sw, "internal server error", http.StatusInternalServerError)
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		reg.Counter("http_requests_total", "HTTP requests by route and status code.",
			"route", route, "code", strconv.Itoa(sw.status)).Inc()
		reg.Histogram("http_request_duration_seconds", "HTTP request latency.",
			"route", route).Observe(elapsed.Seconds())
		if logger != nil {
			logger.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"query", r.URL.RawQuery,
				"status", sw.status,
				"bytes", sw.bytes,
				"duration_ms", float64(elapsed.Microseconds())/1000,
				"remote", r.RemoteAddr,
			)
		}
		if abort {
			panic(http.ErrAbortHandler) // net/http drops the half-written response
		}
	})
}

// serveRecovered runs next and returns the value it panicked with, if
// any, and the stack it panicked on.
func serveRecovered(next http.Handler, w http.ResponseWriter, r *http.Request) (panicked any, stack []byte) {
	defer func() {
		if panicked = recover(); panicked != nil {
			stack = debug.Stack()
		}
	}()
	next.ServeHTTP(w, r)
	return nil, nil
}

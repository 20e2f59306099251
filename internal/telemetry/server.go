package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"stashsim/internal/metrics"
)

// Server is the live telemetry HTTP server. It reads nothing but the
// snapshot its publisher last handed off; a zero Server serves an empty
// exposition, a healthy /healthz and pprof.
type Server struct {
	// Publisher supplies the barrier snapshot behind /snapshot, /metrics
	// and /healthz (503 while the snapshot's watchdog reports an
	// unexplained zero-delivery window).
	Publisher *Publisher

	srv *http.Server
	ln  net.Listener
}

// Handler returns the server's routes on a private mux (also used by the
// httptest-based handler tests).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	samples := []metrics.Sample{{Name: "up", Value: 1, IsGauge: true}}
	metrics.WriteProm(w, append(samples, s.Publisher.Latest().PromSamples()...))
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	snap := s.Publisher.Latest()
	if snap == nil {
		snap = &Snapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.Publisher.Latest()
	if snap == nil {
		snap = &Snapshot{}
	}
	if snap.Watchdog != nil && snap.Watchdog.Stalled {
		http.Error(w, "stalled: zero-delivery window with work pending", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintf(w, "ok cycle=%d\n", snap.Cycle)
}

// NotifyDumps installs a SIGQUIT handler that calls request (a
// DumpRequest's Request) on each signal and keeps the process running — a
// post-mortem peek at a live sim. It returns a stop function that restores
// default signal behavior and returns once the handler goroutine, and so
// any dump it was serving, is done.
func NotifyDumps(request func()) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-ch:
				request()
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
		<-exited
	}
}

package telemetry_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/metrics"
	"stashsim/internal/network"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/telemetry"
	"stashsim/internal/traffic"
)

// buildNet wires a tiny network with uniform traffic, mirroring the
// network package's own test harness.
func buildNet(t *testing.T, load float64, seed uint64) *network.Network {
	t.Helper()
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	n, err := network.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := sim.NewRNG(seed)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			load, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	return n
}

func get(t *testing.T, client *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlers(t *testing.T) {
	reg := metrics.NewRegistry()
	stores := int64(5)
	reg.Scope("sw0").Counter("stash.stores", &stores)
	snap := &telemetry.Snapshot{Cycle: 123, DeliveredPkts: 7, Series: reg.Series(), Values: reg.Read()}
	pub := telemetry.NewPublisher(func() *telemetry.Snapshot { return snap }, 64)
	srv := &telemetry.Server{Publisher: pub}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts.Client(), ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"stashsim_up 1",
		"stashsim_cycle 123",
		"stashsim_delivered_pkts_total 7",
		`stashsim_stash_stores{scope="sw0"} 5`,
		"# TYPE stashsim_stash_stores counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, ts.Client(), ts.URL+"/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot status %d", code)
	}
	var decoded telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if decoded.Cycle != 123 || decoded.DeliveredPkts != 7 {
		t.Fatalf("/snapshot decoded %+v", decoded)
	}

	code, body = get(t, ts.Client(), ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok cycle=123") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, _ = get(t, ts.Client(), ts.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestHealthzStalled(t *testing.T) {
	// Drive a real watchdog into a stall: pending work, zero deliveries.
	w := &metrics.Watchdog{
		Window:    5,
		Delivered: func() int64 { return 0 },
		Pending:   func() bool { return true },
	}
	for _, now := range []int64{0, 5, 10} { // open the first window, then two boundaries
		w.AtBarrier(now)
	}
	if !w.Stalled() {
		t.Fatal("watchdog should be stalled")
	}
	// /healthz reads the barrier snapshot's copy of the signal, never the
	// watchdog.
	pub := telemetry.NewPublisher(func() *telemetry.Snapshot {
		return &telemetry.Snapshot{Watchdog: &telemetry.WatchdogState{Stalled: w.Stalled(), Stalls: w.Stalls}}
	}, 64)
	srv := &telemetry.Server{Publisher: pub}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body := get(t, ts.Client(), ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "stalled") {
		t.Fatalf("/healthz on stall = %d %q", code, body)
	}
}

func TestZeroServer(t *testing.T) {
	ts := httptest.NewServer((&telemetry.Server{}).Handler())
	defer ts.Close()
	if code, _ := get(t, ts.Client(), ts.URL+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics on zero server: %d", code)
	}
	if code, _ := get(t, ts.Client(), ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz on zero server: %d", code)
	}
}

// TestObsSmoke is the live end-to-end pass CI runs under -race: a real
// simulation serving /metrics and /healthz while scrapers hammer it from
// other goroutines. Any unsynchronized read between the HTTP path and the
// simulation loop is a race failure here.
func TestObsSmoke(t *testing.T) {
	n := buildNet(t, 0.3, 42)
	defer n.Close()
	reg := metrics.NewRegistry()
	n.EnableMetrics(reg)
	flight := network.NewFlightRecorder(n, 256)
	n.Observe(flight)
	n.Observe(network.NewWatchdog(n, 2000, io.Discard, flight))
	// Two workers: the profiler's worker lanes record concurrently with
	// the scrapers reading Report() through the snapshot path.
	n.SetWorkers(2)
	n.EnableExecProfile(0)
	pub := telemetry.NewPublisher(n.TelemetrySnapshot, 64)
	n.Observe(pub)
	srv := &telemetry.Server{Publisher: pub}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(path string) {
		defer wg.Done()
		client := &http.Client{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Get(fmt.Sprintf("http://%s%s", addr, path))
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	wg.Add(2)
	go scrape("/metrics")
	go scrape("/healthz")

	n.Run(8000)
	close(stop)
	wg.Wait()

	// After the run: one final publish, then assert the scrape views agree
	// with the simulation.
	pub.Publish()
	client := &http.Client{}
	code, body := get(t, client, fmt.Sprintf("http://%s/metrics", addr))
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "stashsim_cycle 8000") {
		t.Fatalf("final /metrics missing cycle:\n%.400s", body)
	}
	if n.TotalDeliveredFlits() == 0 {
		t.Fatal("smoke run delivered nothing")
	}
	if !strings.Contains(body, "stashsim_delivered_flits_total") {
		t.Fatalf("final /metrics missing delivered flits series")
	}
	// Registry series come out of the same snapshot.
	for _, want := range []string{
		`stashsim_cycles{scope="sw0"} 8000`,
		fmt.Sprintf(`stashsim_stash_stores{scope="sw0"} %d`, n.Switches[0].Counters.StashStores),
		`stashsim_stash_fill{scope="sw0"} `,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("final /metrics missing %q", want)
		}
	}
	code, body = get(t, client, fmt.Sprintf("http://%s/healthz", addr))
	if code != http.StatusOK {
		t.Fatalf("/healthz after run = %d %q", code, body)
	}
	code, body = get(t, client, fmt.Sprintf("http://%s/snapshot", addr))
	if code != http.StatusOK {
		t.Fatalf("/snapshot status %d", code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if snap.Cycle != 8000 || snap.DeliveredFlits != n.TotalDeliveredFlits() {
		t.Fatalf("snapshot disagrees with sim: cycle=%d flits=%d want %d",
			snap.Cycle, snap.DeliveredFlits, n.TotalDeliveredFlits())
	}
	if snap.ExecProfile == nil || snap.ExecProfile.Cycles != 8000 {
		t.Fatalf("snapshot exec profile missing or short: %+v", snap.ExecProfile)
	}
	if snap.Flight == nil || len(snap.Flight.Rows) == 0 {
		t.Fatal("snapshot missing flight tail")
	}
}

// TestServeDoesNotPerturbDeterminism runs the same seeded spec bare and
// fully instrumented (profiler, flight, telemetry, live scraping) and
// requires identical simulation outcomes.
func TestServeDoesNotPerturbDeterminism(t *testing.T) {
	outcome := func(instrument bool) string {
		n := buildNet(t, 0.25, 7)
		defer n.Close()
		var srv *telemetry.Server
		if instrument {
			reg := metrics.NewRegistry()
			n.EnableMetrics(reg)
			n.Observe(network.NewFlightRecorder(n, 128))
			n.EnableExecProfile(32)
			pub := telemetry.NewPublisher(n.TelemetrySnapshot, 32)
			n.Observe(pub)
			srv = &telemetry.Server{Publisher: pub}
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				client := &http.Client{}
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, p := range []string{"/metrics", "/snapshot", "/healthz"} {
						if resp, err := client.Get(fmt.Sprintf("http://%s%s", addr, p)); err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
				}
			}()
			defer func() { close(stop); <-done }()
		}
		n.Run(5000)
		c := n.Counters()
		inj, del, dups, ab := n.DeliveryTotals()
		b, err := json.Marshal(struct {
			C                  core.Counters
			Inj, Del, Dups, Ab int64
			Flits              int64
		}{c, inj, del, dups, ab, n.TotalDeliveredFlits()})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	bare := outcome(false)
	instrumented := outcome(true)
	if bare != instrumented {
		t.Fatalf("instrumentation changed outcomes:\nbare:  %s\nwired: %s", bare, instrumented)
	}
}

func TestNotifyDumpsStop(t *testing.T) {
	stop := telemetry.NotifyDumps(func() {})
	stop() // must not hang or panic; double-stop safety is not required
}

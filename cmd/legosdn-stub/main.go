// Command legosdn-stub hosts one SDN-App in its own OS process, bridged
// to an AppVisor proxy over UDP — the stand-alone stub deployment from
// §4.1 of the LegoSDN paper. The proxy launches this binary via
// appvisor.SubprocessFactory; it can also be run by hand against a
// proxy address printed by the controller.
//
// Usage:
//
//	legosdn-stub -proxy 127.0.0.1:45678 -app learning-switch
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"legosdn/internal/apps"
	"legosdn/internal/appvisor"
	"legosdn/internal/flightrec"
)

func main() {
	proxyAddr := flag.String("proxy", "", "UDP address of the AppVisor proxy (required)")
	appName := flag.String("app", "learning-switch",
		fmt.Sprintf("app to host, one of: %s", strings.Join(apps.Names(), ", ")))
	heartbeat := flag.Duration("heartbeat", 50*time.Millisecond, "heartbeat interval")
	debugAddr := flag.String("debug-addr", "", "serve /debug/traces and pprof on this address")
	flag.Parse()

	if *proxyAddr == "" {
		flag.Usage()
		os.Exit(2)
	}
	app, err := apps.New(*appName)
	if err != nil {
		log.Fatalf("legosdn-stub: %v", err)
	}
	// The stub always samples at 100%: the root decision was already
	// made controller-side, and StartSpan only records events whose
	// wire header carries a trace context.
	flight := flightrec.New(flightrec.Options{SampleRate: 1})
	if *debugAddr != "" {
		go func() {
			srv := &http.Server{Addr: *debugAddr, Handler: flightrec.NewDebugMux(flight, nil, nil)}
			if err := srv.ListenAndServe(); err != http.ErrServerClosed {
				log.Printf("legosdn-stub: debug server: %v", err)
			}
		}()
	}
	stub, err := appvisor.StartStub(app, *proxyAddr, appvisor.StubOptions{
		HeartbeatInterval: *heartbeat,
		Flight:            flight,
	})
	if err != nil {
		log.Fatalf("legosdn-stub: %v", err)
	}
	log.Printf("legosdn-stub: hosting %q, proxy %s", *appName, *proxyAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			stub.Kill()
			return
		case <-tick.C:
			if !stub.Alive() {
				// The app crashed (the wrapper already reported it) or
				// the proxy shut us down: exit like a dead process should.
				os.Exit(1)
			}
		}
	}
}

package cliutil

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// ShutdownContext returns a context cancelled on the first SIGINT or
// SIGTERM — the shared graceful-shutdown seam of the long-running
// front ends (embera-serve, the embera-bench DIFF soak). The contract the
// binaries implement on top of it: on cancellation, drain cleanly and exit
// zero — an operator's Ctrl-C is a shutdown request, not a failure — and
// reserve non-zero exits for real errors. A second signal kills the
// process with the default disposition (stop restores it), so a hung drain
// can always be cut short by hand.
func ShutdownContext() (ctx context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

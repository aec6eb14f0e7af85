//go:build unix

package wire

import (
	"fmt"
	"os"
	"syscall"
)

// SocketPair returns the two ends of a connected unix stream socket, both
// close-on-exec: a link between two processes, each end handed to one of
// them through exec.Cmd.ExtraFiles, or framed in place with FileConn.
func SocketPair() (a, b *os.File, err error) {
	// Hold the fork lock so no process forked meanwhile inherits the ends
	// before they are marked close-on-exec.
	syscall.ForkLock.RLock()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err == nil {
		syscall.CloseOnExec(fds[0])
		syscall.CloseOnExec(fds[1])
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return nil, nil, fmt.Errorf("wire: socketpair: %w", err)
	}
	return os.NewFile(uintptr(fds[0]), "link"), os.NewFile(uintptr(fds[1]), "link"), nil
}

//go:build !unix

package wire

import (
	"errors"
	"os"
)

// SocketPair needs unix stream sockets.
func SocketPair() (a, b *os.File, err error) {
	return nil, nil, errors.New("wire: socket pairs need a unix system")
}

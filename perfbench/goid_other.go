//go:build !amd64

package main

import (
	"bytes"
	"runtime"
	"strconv"
)

// goid identifies the running goroutine by the id in its stack header.
func goid() uintptr {
	var buf [32]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return uintptr(id)
}

//go:build !amd64 && !arm64

package loc

import "unsafe"

// getfp has no stub on this architecture: Caller's chain is empty, and
// every call unwinds the stack with runtime.Callers.
func getfp() unsafe.Pointer { return nil }

//go:build amd64 || arm64

package loc

import "unsafe"

// getfp returns its caller's frame pointer, the same two instructions
// as the runtime's own getfp (fp_amd64.s, fp_arm64.s). On both
// architectures every Go function that calls another saves its
// caller's frame pointer at the address its own frame pointer holds,
// with its return address one word above, so the chain from Caller's
// frame pointer walks the physical frames above it.
func getfp() unsafe.Pointer

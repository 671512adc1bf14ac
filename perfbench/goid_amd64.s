#include "textflag.h"

// func getg() uintptr returns the address of the running goroutine's g
// struct, read from thread-local storage as the runtime does.
TEXT ·getg(SB),NOSPLIT,$0-8
	MOVQ (TLS), AX
	MOVQ AX, ret+0(FP)
	RET

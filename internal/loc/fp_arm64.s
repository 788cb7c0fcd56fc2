#include "textflag.h"

// func getfp() unsafe.Pointer
TEXT ·getfp(SB), NOSPLIT|NOFRAME, $0-8
	MOVD R29, ret+0(FP)
	RET

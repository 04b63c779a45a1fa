package tensor

// cpuidAsm and xgetbvAsm are in cpu_amd64.s.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

// Kernel tiers, detected once at startup. SSE2 is part of the amd64
// baseline; everything above it needs a runtime gate. The tier in effect
// fixes the floating-point op order of every kernel for the lifetime of the
// process, so all paths that must agree bit-for-bit (serial vs pooled,
// single-session vs batched, f32 vs f16-streamed) observe the same
// arithmetic.
var (
	// hasFMA: AVX2 + FMA3 with OS-enabled YMM state — gates the
	// fused-multiply-add kernels of the linear layers (the MatMulT sweeps).
	// A host with AVX but no FMA runs the SSE baseline.
	hasFMA = detectAVX() && detectFeature1(1<<12) && detectAVX2()
	// hasF16C: F16C half-precision conversion on top of hasFMA — gates the
	// packed-f16 streaming kernels. Tied to hasFMA so the f16 kernels only
	// ever pair with FMA-tier f32 kernels of identical op order.
	hasF16C = hasFMA && detectFeature1(1<<29)
)

func detectAVX() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuidAsm(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx&osxsaveBit == 0 || ecx&avxBit == 0 {
		return false
	}
	lo, _ := xgetbvAsm()
	return lo&0x6 == 0x6 // XCR0: XMM and YMM state enabled by the OS
}

// detectFeature1 tests a CPUID leaf-1 ECX feature bit (FMA: bit 12,
// F16C: bit 29).
func detectFeature1(bit uint32) bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuidAsm(1, 0)
	return ecx&bit != 0
}

// detectAVX2 tests CPUID leaf-7 EBX bit 5.
func detectAVX2() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, ebx, _, _ := cpuidAsm(7, 0)
	return ebx&(1<<5) != 0
}

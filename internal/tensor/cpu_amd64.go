package tensor

import (
	"os"
	"strings"
)

// cpuidAsm and xgetbvAsm are in cpu_amd64.s.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

// Kernel tiers, detected once at startup. SSE2 is part of the amd64
// baseline; everything above it needs a runtime gate. The tier in effect
// fixes the floating-point op order of every kernel for the lifetime of the
// process, so all paths that must agree bit-for-bit (1-row vs 4-row blocks,
// single-session vs batched) observe the same arithmetic.
var (
	// hasFMA: AVX2 + FMA3 with OS-enabled YMM state — gates the
	// fused-multiply-add kernels of the linear layers (the MatMulT sweeps).
	// A host with AVX but no FMA runs the SSE baseline, and so does a
	// process whose GODEBUG switches math off its FMA path.
	hasFMA = detectAVX() && detectFeature1(1<<12) && detectAVX2() &&
		godebugKeepsMathFMA(os.Getenv("GODEBUG"))
	// hasF16C: F16C half-precision conversion on top of hasFMA — gates
	// quantizeF16Vec, the binary16 round trip. Tied to hasFMA so one GODEBUG
	// field drops a process to the SSE baseline whole.
	hasF16C = hasFMA && detectFeature1(1<<29)
	// hasAVX512: AVX-512F with OS-enabled opmask and ZMM state on top of
	// hasFMA — gates matMulT1x4Vec512. It is not a tier of its own: the
	// kernel keeps dotVecFMA's op order, so only the speed of the m=1 sweep
	// depends on it. GODEBUG cpu.avx512f=off (or cpu.all=off) turns it off.
	hasAVX512 = hasFMA && detectAVX512F() && godebugCPUOn(os.Getenv("GODEBUG"), "avx512f")
)

// godebugCPUOn reports whether a GODEBUG value leaves the runtime's
// cpu.<feature> flag on. The runtime applies the cpu.<feature>=on|off fields
// left to right, so the last cpu.<feature> or cpu.all field decides; "on"
// cannot enable what the CPU lacks, and the CPUID checks cover that.
func godebugCPUOn(godebug, feature string) bool {
	on := true
	for _, field := range strings.Split(godebug, ",") {
		key, val, _ := strings.Cut(field, "=")
		if (key == "cpu.all" || key == "cpu."+feature) && (val == "on" || val == "off") {
			on = val == "on"
		}
	}
	return on
}

// godebugKeepsMathFMA reports whether a GODEBUG value leaves math.Exp on its
// FMA path (math's useFMA = cpu.X86.HasAVX && cpu.X86.HasFMA). The packed
// exp copies math's FMA path, so it may run only where math does.
func godebugKeepsMathFMA(godebug string) bool {
	return godebugCPUOn(godebug, "avx") && godebugCPUOn(godebug, "fma")
}

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

// detectAVX512F tests CPUID leaf-7 EBX bit 16 and that the OS saves the
// XMM, YMM, opmask and both halves of the ZMM state (XCR0 bits 1, 2, 5, 6,
// 7). Callers have already checked OSXSAVE through detectAVX.
func detectAVX512F() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, ebx, _, _ := cpuidAsm(7, 0)
	lo, _ := xgetbvAsm()
	return ebx&(1<<16) != 0 && lo&0xE6 == 0xE6
}

// Runtime-dispatched SIMD kernels for the KDE hot path (DESIGN.md §11).
//
// The only kernel today is the Gaussian window sum
//     sum_i exp(-0.5 * ((x - s[i]) * inv_bw)^2)
// behind every exact KDE density: the mode search, the ln-density table's
// nodes and its exact fallbacks. Three implementations exist:
// a portable scalar one, an AVX2+FMA one and an AVX-512F one. All evaluate
// exp() with the same fused polynomial (Cody-Waite reduction, degree-13
// Taylor core, exponent reassembly through the exponent bits) and
// accumulate in the same 4-lane striped order — the AVX-512 kernel adds
// each 8-term block into the 4-lane accumulator low quad first, then high
// quad — so their results are bit-identical per call: dispatch never
// changes program output, only wall-clock. The polynomial differs from
// std::exp by a few ULP per kernel term; the observed density shift is
// < 1e-13 relative (documented in DESIGN.md §11).
//
// Dispatch is decided once, at first use, from CPUID; tests can pin a
// kernel with SetKernelForTesting to compare the paths directly.
#ifndef FIXY_STATS_SIMD_H_
#define FIXY_STATS_SIMD_H_

#include <cstddef>

namespace fixy::stats::simd {

enum class Kernel {
  kScalar,
  kAvx2,
  kAvx512,
};

/// The kernel the process dispatches to: the test override if one is set,
/// otherwise the best implementation the CPU supports (detected once).
Kernel ActiveKernel();

/// Whether this build/CPU can run `kernel` (kScalar is always available;
/// kAvx2 needs AVX2 and FMA; kAvx512 needs AVX-512F as well). Every kernel
/// the CPU can run reports true, not only the one dispatch picks.
bool KernelAvailable(Kernel kernel);

/// Pins dispatch to `kernel` for tests. Returns false (and leaves dispatch
/// unchanged) if the kernel is unavailable on this CPU, so tests can skip.
bool SetKernelForTesting(Kernel kernel);

/// Restores CPUID-based dispatch.
void ClearKernelOverrideForTesting();

/// Human-readable kernel name ("scalar", "avx2", "avx512").
const char* KernelName(Kernel kernel);

/// Sums exp(-0.5 * ((x - samples[i]) * inv_bandwidth)^2) over i in [0, n).
/// `samples` need not be aligned or sorted; the caller owns the cutoff
/// windowing. All inputs must be finite. Bit-identical across kernels.
double GaussianWindowSum(const double* samples, size_t n, double x,
                         double inv_bandwidth);

}  // namespace fixy::stats::simd

#endif  // FIXY_STATS_SIMD_H_

#include "stats/simd.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FIXY_SIMD_X86 1
#else
#define FIXY_SIMD_X86 0
#endif

namespace fixy::stats::simd {

namespace {

// exp(arg) for arg in roughly [-708, 0] — the Gaussian kernel argument is
// -0.5*u^2 with |u| <= 8 (the KDE cutoff), so the working range is [-32, 0].
//
// Reduction: arg = n*ln2 + r with n = round(arg*log2(e)) captured through
// the 1.5*2^52 shifter trick, ln2 split hi/lo (Cody-Waite) so r is exact to
// ~2^-60; |r| <= ln2/2. Core: degree-13 Taylor series in Horner form, every
// step a fused multiply-add. Reassembly: 2^n built directly in the exponent
// bits (n >= -1022 always holds here). The scalar version and the
// lane-templated vector version below perform this exact op sequence —
// std::fma and vfmadd both round once, so every path agrees bit-for-bit on
// every input.
constexpr double kLog2E = 1.4426950408889634074;
constexpr double kShifter = 6755399441055744.0;  // 1.5 * 2^52
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;

constexpr double kC2 = 1.0 / 2.0;
constexpr double kC3 = 1.0 / 6.0;
constexpr double kC4 = 1.0 / 24.0;
constexpr double kC5 = 1.0 / 120.0;
constexpr double kC6 = 1.0 / 720.0;
constexpr double kC7 = 1.0 / 5040.0;
constexpr double kC8 = 1.0 / 40320.0;
constexpr double kC9 = 1.0 / 362880.0;
constexpr double kC10 = 1.0 / 3628800.0;
constexpr double kC11 = 1.0 / 39916800.0;
constexpr double kC12 = 1.0 / 479001600.0;
constexpr double kC13 = 1.0 / 6227020800.0;

inline double PolyExp(double arg) {
  const double t = std::fma(arg, kLog2E, kShifter);
  const double n_d = t - kShifter;
  double r = std::fma(n_d, -kLn2Hi, arg);
  r = std::fma(n_d, -kLn2Lo, r);
  double p = kC13;
  p = std::fma(p, r, kC12);
  p = std::fma(p, r, kC11);
  p = std::fma(p, r, kC10);
  p = std::fma(p, r, kC9);
  p = std::fma(p, r, kC8);
  p = std::fma(p, r, kC7);
  p = std::fma(p, r, kC6);
  p = std::fma(p, r, kC5);
  p = std::fma(p, r, kC4);
  p = std::fma(p, r, kC3);
  p = std::fma(p, r, kC2);
  p = std::fma(p, r, 1.0);
  p = std::fma(p, r, 1.0);
  const int64_t n = static_cast<int64_t>(std::bit_cast<uint64_t>(t)) -
                    static_cast<int64_t>(std::bit_cast<uint64_t>(kShifter));
  const double scale =
      std::bit_cast<double>(static_cast<uint64_t>(n + 1023) << 52);
  return p * scale;
}

inline double KernelTerm(double x, double sample, double inv_bandwidth) {
  const double u = (x - sample) * inv_bandwidth;
  const double t = u * u;
  return PolyExp(t * -0.5);
}

// Every window sum stripes the quads across four lane accumulators
// (lane j takes elements 4i+j), reduces as (a0+a1)+(a2+a3), then folds the
// tail in sequentially — the identical association in all three paths.
double WindowSumScalar(const double* samples, size_t n, double x,
                       double inv_bandwidth) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += KernelTerm(x, samples[i], inv_bandwidth);
    acc1 += KernelTerm(x, samples[i + 1], inv_bandwidth);
    acc2 += KernelTerm(x, samples[i + 2], inv_bandwidth);
    acc3 += KernelTerm(x, samples[i + 3], inv_bandwidth);
  }
  double sum = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) {
    sum += KernelTerm(x, samples[i], inv_bandwidth);
  }
  return sum;
}

#if FIXY_SIMD_X86

#define FIXY_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define FIXY_TARGET_AVX512 __attribute__((target("avx512f,avx2,fma")))

// One struct per vector width, each op that width's intrinsic. The
// polynomial below is written once over these lane types.
struct Avx2Lanes {
  using V = __m256d;
  FIXY_TARGET_AVX2 static V Set1(double v) { return _mm256_set1_pd(v); }
  FIXY_TARGET_AVX2 static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  FIXY_TARGET_AVX2 static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  FIXY_TARGET_AVX2 static V Fmadd(V a, V b, V c) {
    return _mm256_fmadd_pd(a, b, c);
  }
  FIXY_TARGET_AVX2 static V Fnmadd(V a, V b, V c) {
    return _mm256_fnmadd_pd(a, b, c);
  }
  // 2^n for n = bits(t) - bits(shifter), built in the exponent bits.
  FIXY_TARGET_AVX2 static V Exp2(V t, V shifter) {
    const __m256i n = _mm256_sub_epi64(_mm256_castpd_si256(t),
                                       _mm256_castpd_si256(shifter));
    return _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_add_epi64(n, _mm256_set1_epi64x(1023)), 52));
  }
};

struct Avx512Lanes {
  using V = __m512d;
  FIXY_TARGET_AVX512 static V Set1(double v) { return _mm512_set1_pd(v); }
  FIXY_TARGET_AVX512 static V Sub(V a, V b) { return _mm512_sub_pd(a, b); }
  FIXY_TARGET_AVX512 static V Mul(V a, V b) { return _mm512_mul_pd(a, b); }
  FIXY_TARGET_AVX512 static V Fmadd(V a, V b, V c) {
    return _mm512_fmadd_pd(a, b, c);
  }
  FIXY_TARGET_AVX512 static V Fnmadd(V a, V b, V c) {
    return _mm512_fnmadd_pd(a, b, c);
  }
  FIXY_TARGET_AVX512 static V Exp2(V t, V shifter) {
    const __m512i n = _mm512_sub_epi64(_mm512_castpd_si512(t),
                                       _mm512_castpd_si512(shifter));
    return _mm512_castsi512_pd(_mm512_slli_epi64(
        _mm512_add_epi64(n, _mm512_set1_epi64(1023)), 52));
  }
};

// KernelTerm's op sequence, lane-wise, over one vector of samples. The
// template carries no target of its own: it is always inlined into a
// kernel whose target covers L, so the default-target calling convention
// for vectors that -Wpsabi warns about is never used (its parameters pass
// by reference, which keeps GCC's note about 64-byte parameters away too).
// The warnings are reported where the template is instantiated, at the end
// of the file, so they stay off from here on.
#pragma GCC diagnostic ignored "-Wpsabi"
template <class L>
[[gnu::always_inline]] inline typename L::V KernelTerms(
    const typename L::V& s, const typename L::V& x,
    const typename L::V& inv_bw) {
  using V = typename L::V;
  const V u = L::Mul(L::Sub(x, s), inv_bw);
  const V arg = L::Mul(L::Mul(u, u), L::Set1(-0.5));
  const V shifter = L::Set1(kShifter);
  const V t = L::Fmadd(arg, L::Set1(kLog2E), shifter);
  const V n_d = L::Sub(t, shifter);
  V r = L::Fnmadd(n_d, L::Set1(kLn2Hi), arg);
  r = L::Fnmadd(n_d, L::Set1(kLn2Lo), r);
  V p = L::Set1(kC13);
  p = L::Fmadd(p, r, L::Set1(kC12));
  p = L::Fmadd(p, r, L::Set1(kC11));
  p = L::Fmadd(p, r, L::Set1(kC10));
  p = L::Fmadd(p, r, L::Set1(kC9));
  p = L::Fmadd(p, r, L::Set1(kC8));
  p = L::Fmadd(p, r, L::Set1(kC7));
  p = L::Fmadd(p, r, L::Set1(kC6));
  p = L::Fmadd(p, r, L::Set1(kC5));
  p = L::Fmadd(p, r, L::Set1(kC4));
  p = L::Fmadd(p, r, L::Set1(kC3));
  p = L::Fmadd(p, r, L::Set1(kC2));
  p = L::Fmadd(p, r, L::Set1(1.0));
  p = L::Fmadd(p, r, L::Set1(1.0));
  return L::Mul(p, L::Exp2(t, shifter));
}

// Both vector kernels end here: the four lanes reduce as (a0+a1)+(a2+a3)
// and the scalar tail [i, n) folds in sequentially, as in WindowSumScalar.
FIXY_TARGET_AVX2 double FinishWindowSum(__m256d acc, const double* samples,
                                        size_t i, size_t n, double x,
                                        double inv_bandwidth) {
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    sum += KernelTerm(x, samples[i], inv_bandwidth);
  }
  return sum;
}

FIXY_TARGET_AVX2 double WindowSumAvx2(const double* samples, size_t n,
                                      double x, double inv_bandwidth) {
  const __m256d xv = _mm256_set1_pd(x);
  const __m256d inv_bw = _mm256_set1_pd(inv_bandwidth);
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, KernelTerms<Avx2Lanes>(_mm256_loadu_pd(samples + i), xv, inv_bw));
  }
  return FinishWindowSum(acc, samples, i, n, x, inv_bandwidth);
}

// Eight terms per step, added into the AVX2 kernel's 4-lane accumulator low
// quad first, then high quad: every lane sums the same terms in the same
// order as the 4-wide loop, so the result keeps its bits.
FIXY_TARGET_AVX512 double WindowSumAvx512(const double* samples, size_t n,
                                          double x, double inv_bandwidth) {
  const __m512d xv8 = _mm512_set1_pd(x);
  const __m512d inv_bw8 = _mm512_set1_pd(inv_bandwidth);
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d terms =
        KernelTerms<Avx512Lanes>(_mm512_loadu_pd(samples + i), xv8, inv_bw8);
    acc = _mm256_add_pd(acc, _mm512_castpd512_pd256(terms));
    acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(terms, 1));
  }
  if (i + 4 <= n) {
    acc = _mm256_add_pd(acc, KernelTerms<Avx2Lanes>(
                                 _mm256_loadu_pd(samples + i),
                                 _mm256_set1_pd(x),
                                 _mm256_set1_pd(inv_bandwidth)));
    i += 4;
  }
  return FinishWindowSum(acc, samples, i, n, x, inv_bandwidth);
}

#endif  // FIXY_SIMD_X86

// The widest kernel the CPU runs.
Kernel DetectKernel() {
  for (const Kernel kernel : {Kernel::kAvx512, Kernel::kAvx2}) {
    if (KernelAvailable(kernel)) return kernel;
  }
  return Kernel::kScalar;
}

// -1 = no override; otherwise the pinned Kernel value.
std::atomic<int> g_kernel_override{-1};

}  // namespace

Kernel ActiveKernel() {
  const int override_value =
      g_kernel_override.load(std::memory_order_relaxed);
  if (override_value >= 0) return static_cast<Kernel>(override_value);
  static const Kernel detected = DetectKernel();
  return detected;
}

bool KernelAvailable(Kernel kernel) {
#if FIXY_SIMD_X86
  const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  switch (kernel) {
    case Kernel::kScalar:
      return true;
    case Kernel::kAvx2:
      return avx2;
    case Kernel::kAvx512:
      return avx2 && __builtin_cpu_supports("avx512f");
  }
  return false;
#else
  return kernel == Kernel::kScalar;
#endif
}

bool SetKernelForTesting(Kernel kernel) {
  if (!KernelAvailable(kernel)) return false;
  g_kernel_override.store(static_cast<int>(kernel),
                          std::memory_order_relaxed);
  return true;
}

void ClearKernelOverrideForTesting() {
  g_kernel_override.store(-1, std::memory_order_relaxed);
}

const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kAvx2:
      return "avx2";
    case Kernel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

double GaussianWindowSum(const double* samples, size_t n, double x,
                         double inv_bandwidth) {
#if FIXY_SIMD_X86
  switch (ActiveKernel()) {
    case Kernel::kAvx512:
      return WindowSumAvx512(samples, n, x, inv_bandwidth);
    case Kernel::kAvx2:
      return WindowSumAvx2(samples, n, x, inv_bandwidth);
    case Kernel::kScalar:
      break;
  }
#endif
  return WindowSumScalar(samples, n, x, inv_bandwidth);
}

}  // namespace fixy::stats::simd

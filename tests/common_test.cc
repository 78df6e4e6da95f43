// Tests for src/common: Status, Result, macros, random, string utilities.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#endif

#include "common/crc32.h"
#include "common/macros.h"
#include "common/process.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace fixy {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Unavailable("x").ToString(), "Unavailable: x");
  EXPECT_EQ(Status::InvalidArgument("boom").message(), "boom");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  const Status s = Status::InvalidArgument("negative volume");
  EXPECT_EQ(s.ToString(), "InvalidArgument: negative volume");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, StreamOperatorPrintsToString) {
  std::ostringstream os;
  os << Status::IoError("disk");
  EXPECT_EQ(os.str(), "IoError: disk");
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ValueOrReturnsFallbackOnError) {
  Result<int> err = Status::Internal("x");
  EXPECT_EQ(err.value_or(-1), -1);
  Result<int> ok = 7;
  EXPECT_EQ(ok.value_or(-1), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(r->size(), 5u);
}

Result<int> HelperReturnsError() { return Status::OutOfRange("nope"); }

Result<int> HelperUsesAssignOrReturn() {
  FIXY_ASSIGN_OR_RETURN(int v, HelperReturnsError());
  return v + 1;
}

Status HelperUsesReturnIfError() {
  FIXY_RETURN_IF_ERROR(Status::Ok());
  FIXY_RETURN_IF_ERROR(Status::IoError("late"));
  return Status::Ok();
}

TEST(MacrosTest, AssignOrReturnPropagatesError) {
  const Result<int> r = HelperUsesAssignOrReturn();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(MacrosTest, ReturnIfErrorPropagatesFirstError) {
  const Status s = HelperUsesReturnIfError();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalWithParameters) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(31);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, CategoricalSingleOutcome) {
  Rng rng(37);
  EXPECT_EQ(rng.Categorical({5.0}), 0u);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(41);
  const int n = 50000;
  long total = 0;
  for (int i = 0; i < n; ++i) total += rng.Poisson(4.0);
  EXPECT_NEAR(static_cast<double>(total) / n, 4.0, 0.1);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, PoissonLargeMeanUsesApproximation) {
  Rng rng(47);
  const int n = 20000;
  long total = 0;
  for (int i = 0; i < n; ++i) {
    const int x = rng.Poisson(50.0);
    EXPECT_GE(x, 0);
    total += x;
  }
  EXPECT_NEAR(static_cast<double>(total) / n, 50.0, 0.5);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.Split();
  // Child stream differs from the parent's continuation.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.NextUint64() != child.NextUint64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, SplitIsDeterministic) {
  Rng a(5);
  Rng b(5);
  Rng ca = a.Split();
  Rng cb = b.Split();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(ca.NextUint64(), cb.NextUint64());
  }
}

// --------------------------------------------------------- string utils

TEST(StringUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("x=%d", 7), "x=7");
  EXPECT_EQ(StrFormat("%s-%s", "a", "b"), "a-b");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StringUtilTest, StrFormatLongOutput) {
  const std::string big(5000, 'x');
  EXPECT_EQ(StrFormat("%s", big.c_str()).size(), 5000u);
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(EndsWith("x", ""));
  EXPECT_FALSE(EndsWith("", "x"));
}

TEST(StringUtilTest, DoubleToStringDropsTrailingZeros) {
  EXPECT_EQ(DoubleToString(3.5), "3.5");
  EXPECT_EQ(DoubleToString(2.0), "2");
  EXPECT_EQ(DoubleToString(0.125), "0.125");
}

// ----------------------------------------------------------------- Crc32

TEST(Crc32Test, MatchesKnownVectors) {
  // The IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  // Sensitive to every byte.
  EXPECT_NE(Crc32("123456789"), Crc32("123456780"));
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

TEST(Crc32Test, StringViewOverloadAgreesWithPointerForm) {
  const std::string bytes = "fxb section payload \x00\xff\x7f";
  EXPECT_EQ(Crc32(bytes), Crc32(bytes.data(), bytes.size()));
}

// The byte-at-a-time table loop, kept as the reference both the sliced
// fallback and the carry-less-multiplication kernel must match bit for
// bit.
uint32_t ReferenceCrc32(const unsigned char* bytes, size_t size) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// Calls the slicing-by-8 fallback directly, so it stays covered on a host
// whose Crc32 takes the PCLMULQDQ kernel.
TEST(Crc32Test, SlicedMatchesByteAtATimeReference) {
  std::mt19937_64 rng(20221);
  // Every length through 1024 at every start offset mod 8, so each
  // split between the 8-byte steps and the byte tail is covered.
  std::vector<unsigned char> small(1024 + 8);
  for (unsigned char& b : small) b = static_cast<unsigned char>(rng());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 1024; ++length) {
      const unsigned char* start = small.data() + offset;
      ASSERT_EQ(Crc32Sliced(start, length), ReferenceCrc32(start, length))
          << "offset " << offset << " length " << length;
    }
  }
  // A multi-megabyte buffer with an odd length, the size of a dense
  // scene section several times over.
  std::vector<unsigned char> big((4u << 20) + 5);
  for (unsigned char& b : big) b = static_cast<unsigned char>(rng());
  EXPECT_EQ(Crc32Sliced(big.data(), big.size()),
            ReferenceCrc32(big.data(), big.size()));
  EXPECT_EQ(Crc32Sliced(big.data() + 3, big.size() - 3),
            ReferenceCrc32(big.data() + 3, big.size() - 3));
}

// Crc32 as every caller gets it: the PCLMULQDQ kernel where the host has
// one (64 bytes and up, a 16-byte-multiple head, then the sliced tail),
// the sliced loop elsewhere.
TEST(Crc32Test, DispatchedMatchesByteAtATimeReference) {
  std::mt19937_64 rng(20262);
  // Every length through 4096 at every start offset mod 16: each split
  // between the 64-byte folds, the 16-byte folds and the sliced tail,
  // at every alignment of the unaligned loads.
  std::vector<unsigned char> small(4096 + 16);
  for (unsigned char& b : small) b = static_cast<unsigned char>(rng());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 4096; ++length) {
      const unsigned char* start = small.data() + offset;
      ASSERT_EQ(Crc32(start, length), ReferenceCrc32(start, length))
          << "offset " << offset << " length " << length;
    }
  }
  // 32 MiB plus an odd tail, about an update-cycle cache's reused bytes.
  std::vector<unsigned char> big((32u << 20) + 13);
  for (unsigned char& b : big) b = static_cast<unsigned char>(rng());
  EXPECT_EQ(Crc32(big.data(), big.size()),
            ReferenceCrc32(big.data(), big.size()));
  EXPECT_EQ(Crc32(big.data() + 7, big.size() - 7),
            ReferenceCrc32(big.data() + 7, big.size() - 7));
}

// --------------------------------------------------------------- process

#if defined(__unix__) || defined(__APPLE__)

// Writing to a peer that already hung up must surface as an IoError, not
// a SIGPIPE that kills the process. fixyd and its clients depend on this
// through IgnoreSigpipe(): without it, a daemon writing a response to a
// client that had gone away died with the default signal action.
TEST(ProcessTest, WriteToDeadPeerFailsInsteadOfKillingTheProcess) {
  IgnoreSigpipe();
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);  // peer hangs up

  // Large enough that the kernel cannot buffer it all even if the
  // first write squeaks through before the EPIPE materializes.
  const std::string payload(1 << 20, 'x');
  Status status = WriteAllFd(fds[0], payload);
  if (status.ok()) {
    // A second write after the hang-up is guaranteed to hit EPIPE.
    status = WriteAllFd(fds[0], payload);
  }
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status;
  ::close(fds[0]);
}

TEST(ProcessTest, IgnoreSigpipeIsIdempotent) {
  IgnoreSigpipe();
  IgnoreSigpipe();  // second call must be a harmless no-op
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  EXPECT_FALSE(WriteAllFd(fds[1], "boom").ok());
  ::close(fds[1]);
}

// True when `fd` has a byte to read within `timeout_ms`.
bool Readable(int fd, int timeout_ms) {
  struct pollfd pfd = {fd, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) == 1 && (pfd.revents & POLLIN) != 0;
}

// fixyd and watch stop on SIGINT/SIGTERM through one stop pipe. The
// binding must wake the pipe and, once it ends, hand the signal back to
// whatever disposition was there before, here SIG_IGN.
TEST(ProcessTest, StopSignalsWakeThePipeAndRestoreTheOldHandler) {
  struct sigaction ignore = {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  struct sigaction original = {};
  ASSERT_EQ(::sigaction(SIGTERM, &ignore, &original), 0);
  const Result<std::unique_ptr<StopPipe>> pipe = StopPipe::Create();
  ASSERT_TRUE(pipe.ok()) << pipe.status();
  EXPECT_FALSE(Readable((*pipe)->read_fd(), 0));
  {
    const ScopedStopSignals binding(**pipe);
    ASSERT_EQ(std::raise(SIGTERM), 0);
    EXPECT_TRUE(Readable((*pipe)->read_fd(), 1000));
  }
  struct sigaction after = {};
  ASSERT_EQ(::sigaction(SIGTERM, nullptr, &after), 0);
  EXPECT_EQ(after.sa_handler, SIG_IGN);
  ::sigaction(SIGTERM, &original, nullptr);
}

// A nested binding hands SIGINT back to the pipe bound before it.
TEST(ProcessTest, NestedStopSignalsRestoreThePreviousPipe) {
  const Result<std::unique_ptr<StopPipe>> outer = StopPipe::Create();
  const Result<std::unique_ptr<StopPipe>> inner = StopPipe::Create();
  ASSERT_TRUE(outer.ok() && inner.ok());
  {
    const ScopedStopSignals outer_binding(**outer);
    { const ScopedStopSignals inner_binding(**inner); }
    ASSERT_EQ(std::raise(SIGINT), 0);
    EXPECT_TRUE(Readable((*outer)->read_fd(), 1000));
    EXPECT_FALSE(Readable((*inner)->read_fd(), 0));
  }
  (*inner)->Notify();
  EXPECT_TRUE(Readable((*inner)->read_fd(), 1000));
}

#endif  // defined(__unix__) || defined(__APPLE__)

}  // namespace
}  // namespace fixy
